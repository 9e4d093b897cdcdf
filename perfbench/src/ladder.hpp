// Layer-cost ladder: each rung times one public call in a tight loop on
// the deterministic backend and reports ns per op, so a layer's cost is
// its increment over the rung below it.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Rung {
  std::string name;   // metric name, e.g. "csp.net.named_rdv_ns"
  std::string below;  // rung this one builds on ("" for a floor rung)
  double ns = 0;      // ns per op of the fastest repetition
};

/// Run every rung five times after a warm-up and keep the fastest, in
/// ladder order.
std::vector<Rung> run_ladder();

/// ns of `name` minus ns of its `below` rung (its own ns for a floor).
double rung_increment(const std::vector<Rung>& ladder, const Rung& r);
double rung_ns(const std::vector<Rung>& ladder, const std::string& name);

}  // namespace perfbench
