// Seeded counter-path violations for `snd_lint.py --self-test`:
// instrument objects owned outside src/snd/obs/, which would count
// events the registry (and so `stats`) never sees.
#include <memory>

namespace snd {

class ShadowCache {
  obs::Counter owned_hits_;                   // member object
  std::unique_ptr<obs::Gauge> owned_size_;    // owning smart pointer
  obs::Counter* registered_misses_ = nullptr;  // pointer: fine
};

void Count() {
  obs::Histogram latency;  // local object
}

}  // namespace snd
