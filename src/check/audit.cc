#include "check/audit.hh"

#include <sstream>

namespace seesaw::check {

std::string
formatViolation(const Violation &v)
{
    std::ostringstream os;
    os << "invariant violated: " << v.check;
    if (v.core >= 0)
        os << " core=" << v.core;
    os << " addr=0x" << std::hex << v.addr << std::dec
       << " cycle=" << v.cycle << ": " << v.detail;
    return os.str();
}

} // namespace seesaw::check
