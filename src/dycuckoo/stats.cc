#include "dycuckoo/stats.h"

#include <sstream>

namespace dycuckoo {

std::string TableStats::Snapshot::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  DYCUCKOO_TABLE_STATS(DYCUCKOO_COUNTER_PRINT)
  return os.str();
}

}  // namespace dycuckoo
