// Parameter (de)serialization: lets a trained cluster model be saved once
// and reused across simulations — the paper's "once trained they are
// cheap to run, reusable" property.
//
// One container, "ESML": the magic, the parameter count, then per
// parameter its name length, name, rows, cols and rows*cols raw doubles.
// A file loads by name into a live module of the same architecture.
#pragma once

#include <string>
#include <vector>

#include "ml/module.h"

namespace esim::ml {

/// Writes the parameter set to a binary file. Throws on I/O failure.
void save_parameters(const std::string& path,
                     const std::vector<Parameter>& params);

/// Loads a save_parameters file into `module`. The file must name each of
/// the module's parameters exactly once, with the module's shape and only
/// finite values; every length field must fit in what is left of the
/// file. Throws std::runtime_error naming the parameter or field on any
/// violation or I/O failure, and then leaves the module untouched. On
/// success bumps the module's weight version, so a session compiled from
/// it throws until recompiled (MicroModel::recompile).
void load_parameters(const std::string& path, Module& module);

}  // namespace esim::ml
