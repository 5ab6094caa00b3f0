// The bonded multi-operator run is pipeline::Session's second constructor;
// this name stays for existing callers.
#pragma once

#include "pipeline/session.hpp"

namespace rpv::pipeline {

using MultipathSession = Session;

}  // namespace rpv::pipeline
