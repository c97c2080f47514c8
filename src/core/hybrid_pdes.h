// Forwarding header: the builders live in core/network.h. Kept only
// because benchmark/workloads.cc includes it and the benchmark tree is
// changed separately from the code it measures; delete it once the
// benchmark includes core/network.h.
#pragma once

#include "core/network.h"
