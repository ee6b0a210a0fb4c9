#include "tls/violation_detector.hpp"

#include <algorithm>

namespace tlsim::tls {

void
ViolationDetector::noteRead(Addr word, TaskId reader, TaskId observed)
{
    byWord_[word].push_back(ReadRecord{reader, observed});
    ++records_;
}

TaskId
ViolationDetector::checkWrite(Addr word, TaskId writer) const
{
    const auto *vec = byWord_.find(word);
    if (!vec)
        return kNoTask;
    TaskId victim = kNoTask;
    for (const ReadRecord &r : *vec) {
        if (r.reader > writer && r.observed < writer && r.reader < victim)
            victim = r.reader;
    }
    return victim;
}

void
ViolationDetector::dropReader(TaskId reader, const std::vector<Addr> &words)
{
    for (Addr word : words) {
        auto *vec = byWord_.find(word);
        if (!vec)
            continue;
        auto new_end = std::remove_if(
            vec->begin(), vec->end(),
            [reader](const ReadRecord &r) { return r.reader == reader; });
        records_ -= std::uint64_t(vec->end() - new_end);
        vec->erase(new_end, vec->end());
        if (vec->empty())
            byWord_.erase(word);
    }
}

void
ViolationDetector::clear()
{
    byWord_.clear();
    records_ = 0;
}

} // namespace tlsim::tls
