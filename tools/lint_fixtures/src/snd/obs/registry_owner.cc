// The registry's own home may hold instrument objects: counter-path
// exempts src/snd/obs/, where MetricsRegistry::Register* creates them.
#include <map>
#include <memory>
#include <string>

namespace snd {

std::map<std::string, std::unique_ptr<obs::Counter>> counters;
obs::Gauge standalone_gauge;

}  // namespace snd
