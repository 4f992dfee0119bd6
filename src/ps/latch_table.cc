#include "ps/latch_table.h"

#include <thread>

#include "util/logging.h"

namespace lapse {
namespace ps {

void Latch::Yield() noexcept { std::this_thread::yield(); }

LatchTable::LatchTable(size_t num_keys)
    : size_(num_keys), latches_(new Latch[num_keys]) {
  LAPSE_CHECK_GT(num_keys, 0u);
}

}  // namespace ps
}  // namespace lapse
