#ifndef HATT_COMMON_DEADLINE_HPP
#define HATT_COMMON_DEADLINE_HPP

/**
 * @file
 * Cooperative resource governance: a monotonic-clock Deadline, a
 * thread-safe CancelToken, and the RunLimits bundle that carries both
 * through MappingRequest, HattOptions, the tree searches, and the
 * qubit-mapping engine.
 *
 * The protocol has two call sites with different safety requirements:
 *
 *  - RunLimits::shouldStop() — noexcept, one clock read + one relaxed
 *    atomic load. Safe inside work-pool chunk callbacks (where an
 *    exception would escape workerLoop and terminate the process); a
 *    chunk that observes it bails out early and returns a partial
 *    result that the caller will discard.
 *
 *  - RunLimits::check() — caller-thread checkpoints (step boundaries,
 *    after a dispatch returns). Throws DeadlineExceededError /
 *    CancelledError, which MapperRegistry::build translates into
 *    Status::DeadlineExceeded / Status::Cancelled.
 *
 * Expiry is monotonic: once shouldStop() observes an expired deadline,
 * every later check() on any thread observes it too, so early-bailing
 * workers never produce a partial result that the caller would keep.
 */

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

namespace hatt {

/** Thrown by RunLimits::check() when the time budget has expired. */
class DeadlineExceededError : public std::runtime_error
{
  public:
    explicit DeadlineExceededError(
        const std::string &what = "deadline exceeded")
        : std::runtime_error(what)
    {
    }
};

/** Thrown by RunLimits::check() after CancelToken::cancel(). */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what = "cancelled")
        : std::runtime_error(what)
    {
    }
};

/** Cooperative cancellation flag; set once, observed by every checker. */
class CancelToken
{
  public:
    void
    cancel() noexcept
    {
        flag_.store(true, std::memory_order_release);
    }

    bool
    cancelled() const noexcept
    {
        return flag_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> flag_{false};
};

/** A monotonic-clock time budget; default-constructed = unbounded. */
class Deadline
{
  public:
    Deadline() = default;

    /** A deadline @p seconds from now (clamped at >= 0). */
    static Deadline after(double seconds);

    bool bounded() const { return expiry_.has_value(); }

    bool
    expired() const noexcept
    {
        return expiry_ && Clock::now() >= *expiry_;
    }

  private:
    using Clock = std::chrono::steady_clock;
    std::optional<Clock::time_point> expiry_;
};

/** The budget bundle plumbed through requests and work loops. */
struct RunLimits
{
    Deadline deadline;                //!< unbounded by default
    const CancelToken *cancel = nullptr; //!< borrowed, may be null

    /** True when any cooperative checking is needed at all. */
    bool
    bounded() const noexcept
    {
        return deadline.bounded() || cancel != nullptr;
    }

    /** Worker-safe poll: true once the budget is gone. Never throws. */
    bool
    shouldStop() const noexcept
    {
        return (cancel && cancel->cancelled()) || deadline.expired();
    }

    /**
     * Caller-thread checkpoint. @throws CancelledError then
     * DeadlineExceededError (cancellation wins when both hold).
     */
    void check() const;
};

} // namespace hatt

#endif // HATT_COMMON_DEADLINE_HPP
