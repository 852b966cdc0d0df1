#include "baselines/ds2.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dragster::baselines {

namespace {

/// Provision 10% above the observed demand.
constexpr double kHeadroom = 1.10;

}  // namespace

Ds2Controller::Ds2Controller(Ds2Options options) : options_(options) {}

void Ds2Controller::on_slot(const streamsim::JobMonitor& monitor,
                            streamsim::ScalingActuator& actuator) {
  const streamsim::SlotReport& report = monitor.last_report();
  const dag::StreamDag& dag = monitor.dag();

  std::vector<int> desired;
  std::vector<dag::NodeId> ids;
  for (dag::NodeId id : dag.operators()) {
    const streamsim::OperatorMetrics& m = report.per_node[id];
    const int tasks = monitor.tasks(id);
    int want = tasks;
    // Per-task "true rate": what this configuration pushed out at full busy,
    // i.e. out_rate / utilization, spread across tasks.  Linear-scaling
    // assumption: demand / per_task_rate tasks suffice.
    if (m.cpu_utilization > 0.02 && m.out_rate > 0.0) {
      const double per_task = m.out_rate / m.cpu_utilization / static_cast<double>(tasks);
      const double demand = std::max(m.demand_rate, m.out_rate);
      want = static_cast<int>(std::ceil(kHeadroom * demand / per_task));
    }
    want = std::clamp(want, 1, monitor.max_tasks());
    ids.push_back(id);
    desired.push_back(want);
  }

  pressure_ = 0.0;
  if (options_.budget.limited()) {
    int wanted = 0;
    for (int tasks : desired) wanted += tasks;
    const auto cap = options_.budget.max_total_tasks();
    if (cap > 0 && static_cast<std::size_t>(wanted) > cap)
      pressure_ = static_cast<double>(static_cast<std::size_t>(wanted) - cap) /
                  static_cast<double>(cap);
    desired = options_.budget.project(std::move(desired));
  }

  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (desired[i] != monitor.tasks(ids[i])) actuator.set_tasks(ids[i], desired[i]);
  }
}

}  // namespace dragster::baselines
