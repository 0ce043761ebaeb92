#include "mapping/hatt_counts.hpp"

#include <cassert>

#include "common/hash.hpp"

namespace hatt::detail {

TermCounts::TermCounts(uint32_t max_id)
    : dedup_(16, SupportHash{this}, SupportEq{this}), cnt1_(max_id, 0),
      adj_(max_id), inv_(max_id)
{
}

void
TermCounts::reserve(size_t terms)
{
    start_.reserve(terms);
    size_.reserve(terms);
    mult_.reserve(terms);
    hash_.reserve(terms);
    touch_stamp_.reserve(terms);
    dedup_.reserve(terms);
}

uint64_t
TermCounts::idKey(int id)
{
    return splitmix64(0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(id));
}

void
TermCounts::adjAdd(int a, int b, int64_t mult)
{
    auto bump = [&](int u, int v) {
        auto [it, inserted] = adj_[u].try_emplace(v, 0);
        it->second += mult;
        assert(it->second >= 0);
        if (it->second == 0)
            adj_[u].erase(it); // keep every stored count strictly positive
    };
    bump(a, b);
    bump(b, a);
}

int64_t
TermCounts::pairCount(int a, int b) const
{
    const auto &row = adj_[a];
    auto it = row.find(b);
    return it == row.end() ? 0 : it->second;
}

void
TermCounts::addCounts(std::span<const int> ids, int64_t mult)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        cnt1_[ids[i]] += mult;
        assert(cnt1_[ids[i]] >= 0);
        for (size_t j = i + 1; j < ids.size(); ++j)
            adjAdd(ids[i], ids[j], mult);
    }
}

bool
TermCounts::dedupInsert(uint32_t term, int64_t mult)
{
    auto [it, inserted] = dedup_.insert(term);
    if (inserted) {
        mult_[term] = mult;
        return true;
    }
    mult_[*it] += mult;
    mult_[term] = 0;
    return false;
}

void
TermCounts::addTerm(const std::vector<uint32_t> &support, int64_t mult)
{
    assert(!support.empty());
    const uint32_t term = static_cast<uint32_t>(mult_.size());
    start_.push_back(ids_.size());
    size_.push_back(static_cast<uint32_t>(support.size()));
    mult_.push_back(0);
    hash_.push_back(0);
    touch_stamp_.push_back(0);
    for (uint32_t id : support) {
        assert(id < cnt1_.size());
        assert(ids_.size() == start_[term] ||
               ids_.back() < static_cast<int>(id));
        ids_.push_back(static_cast<int>(id));
        hash_[term] ^= idKey(static_cast<int>(id));
    }
    // Counts are linear in the multiplicity, so a support folded into an
    // equal one adds its counts just the same.
    addCounts(supportOf(term), mult);
    if (dedupInsert(term, mult)) {
        for (int id : supportOf(term))
            inv_[id].push_back(term);
    } else {
        // Folded into an existing equal support: drop the tentative slot
        // (dedupInsert left it out of the dedup set).
        ids_.resize(start_[term]);
        start_.pop_back();
        size_.pop_back();
        mult_.pop_back();
        hash_.pop_back();
        touch_stamp_.pop_back();
    }
}

void
TermCounts::merge(int a, int b, int c, int parent)
{
    assert(parent >= 0 && static_cast<size_t>(parent) < cnt1_.size());
    ++stamp_;

    // Gather live terms whose support intersects {a, b, c}. The inverted
    // index may hold stale entries (dead terms, moved supports); filter by
    // re-checking membership.
    scratch_terms_.clear();
    for (int id : {a, b, c}) {
        for (uint32_t t : inv_[id]) {
            if (t >= mult_.size() || mult_[t] == 0 ||
                touch_stamp_[t] == stamp_)
                continue;
            std::span<const int> ids = supportOf(t);
            if (!std::binary_search(ids.begin(), ids.end(), id))
                continue;
            touch_stamp_[t] = stamp_;
            scratch_terms_.push_back(t);
        }
        inv_[id].clear(); // a, b, c never become active again
    }

    for (uint32_t t : scratch_terms_) {
        const int64_t mult = mult_[t];
        addCounts(supportOf(t), -mult);
        dedup_.erase(t);
        mult_[t] = 0;

        // Seed reduction rule: drop a/b/c, append parent iff odd count.
        // The support and its hash are rewritten in place; at least one id
        // is dropped and parent is the largest id, so the list stays
        // ascending within its slot.
        std::span<int> ids = supportOf(t);
        int present = 0;
        uint32_t kept_ids = 0;
        for (int id : ids) {
            if (id == a || id == b || id == c) {
                ++present;
                hash_[t] ^= idKey(id);
            } else {
                ids[kept_ids++] = id;
            }
        }
        assert(present > 0);
        if (present & 1) {
            assert(kept_ids == 0 || ids[kept_ids - 1] < parent);
            ids[kept_ids++] = parent;
            hash_[t] ^= idKey(parent);
        }
        size_[t] = kept_ids;
        if (kept_ids == 0)
            continue; // fully settled: contributes no further weight

        const bool kept = dedupInsert(t, mult);
        addCounts(supportOf(t), mult);
        if (kept && (present & 1))
            inv_[parent].push_back(t);
        // When folded into an existing term, that term already has inverted
        // index entries for exactly this support.
    }
}

std::vector<std::pair<std::vector<int>, int64_t>>
TermCounts::snapshot() const
{
    std::vector<std::pair<std::vector<int>, int64_t>> out;
    for (uint32_t t = 0; t < mult_.size(); ++t) {
        if (mult_[t] == 0)
            continue;
        std::span<const int> ids = supportOf(t);
        out.emplace_back(std::vector<int>(ids.begin(), ids.end()), mult_[t]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace hatt::detail
