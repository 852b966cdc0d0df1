#include "baselines/dhalion.hpp"

namespace dragster::baselines {

namespace {

/// Below this CPU utilization an operator sheds a task.
constexpr double kIdleUtilization = 0.50;

}  // namespace

DhalionController::DhalionController(DhalionOptions options) : options_(options) {}

void DhalionController::on_slot(const streamsim::JobMonitor& monitor,
                                streamsim::ScalingActuator& actuator) {
  const streamsim::SlotReport& report = monitor.last_report();
  const dag::StreamDag& dag = monitor.dag();

  int total_tasks = 0;
  for (dag::NodeId id : dag.operators()) total_tasks += monitor.tasks(id);
  const auto cap = options_.budget.max_total_tasks();
  frozen_ = false;

  // Resolution 1: relieve backpressure — first backpressured operator in
  // topological order gains one task.
  for (dag::NodeId id : dag.topo_order()) {
    if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
    if (!report.per_node[id].backpressured) continue;
    const int tasks = monitor.tasks(id);
    if (tasks >= monitor.max_tasks()) continue;  // per-operator ceiling
    if (options_.budget.limited() && static_cast<std::size_t>(total_tasks + 1) > cap) {
      frozen_ = true;
      return;  // budget exhausted: Dhalion freezes
    }
    actuator.set_tasks(id, tasks + 1);
    return;  // one action per slot
  }

  // Resolution 2: remove the most idle task.
  dag::NodeId idlest = 0;
  double lowest = kIdleUtilization;
  bool found = false;
  for (dag::NodeId id : dag.operators()) {
    const double util = report.per_node[id].cpu_utilization;
    if (monitor.tasks(id) > 1 && util < lowest) {
      lowest = util;
      idlest = id;
      found = true;
    }
  }
  if (found) actuator.set_tasks(idlest, monitor.tasks(idlest) - 1);
}

}  // namespace dragster::baselines
