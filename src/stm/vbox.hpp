// Versioned boxes (paper §III): the unit of transactional shared state.
//
// VBoxImpl is the untyped concurrency-layer cell holding the two lists of
// Fig. 3b: the permanent (committed) version list and the tentative list
// used by sub-transactions of a transaction tree. VBox<T> is the typed
// user-facing wrapper.
#pragma once

#include <atomic>
#include <bit>
#include <cstring>
#include <type_traits>

#include "stm/versions.hpp"
#include "util/epoch.hpp"

namespace txf::core {
struct TentativeVersion;  // defined in core/tentative.hpp
}

namespace txf::stm {

// LIFETIME CONTRACT: a VBox's version numbers come from one StmEnv's global
// clock, and its old versions are reclaimed against that env's registry. A
// box must therefore be used with a single StmEnv for its whole life;
// sharing boxes across envs (or reusing them after the env's clock reset)
// makes committed versions unreachable.
//
// HOME SLOT (read fast path): the newest committed (version, value) pair is
// mirrored inline, in the box's own cache line, behind a seqlock. A reader
// whose snapshot covers the mirrored version completes with zero pointer
// chases — no permanent-list traversal at all. Publication protocol and the
// proof that a stable `home.version <= snapshot` slot is always the correct
// visible version live in DESIGN.md ("Read path"); the short form:
// publish_home() for version V runs (idempotently, by every write-back
// helper) *before* the batch's single clock advance to >= V, so any reader
// whose snapshot admits V has already synchronized with the slot store and
// can never observe a staler pair as stable.
class VBoxImpl {
 public:
  /// Deleter for the heap object a Word points at, installed with
  /// set_value_reclaimer(). Receives the Word reinterpreted as a pointer.
  using ValueReclaimer = void (*)(void*);

  /// The initial value is committed at version 0, so it is visible to every
  /// transaction from the start.
  explicit VBoxImpl(Word initial)
      : home_value_(initial),
        permanent_(new PermanentVersion(initial, 0, nullptr)) {}

  /// Destruction requires quiescence (no transaction may touch this box).
  /// With a value reclaimer installed, every value still reachable from the
  /// permanent list is reclaimed along with its version node.
  ~VBoxImpl() {
    PermanentVersion* p = permanent_.load(std::memory_order_relaxed);
    while (p != nullptr && p != trimmed_tail()) {
      PermanentVersion* next = p->next.load(std::memory_order_relaxed);
      if (value_reclaimer_ != nullptr && p->value != 0)
        value_reclaimer_(reinterpret_cast<void*>(p->value));
      delete p;
      p = next;
    }
  }

  VBoxImpl(const VBoxImpl&) = delete;
  VBoxImpl& operator=(const VBoxImpl&) = delete;

  // --- home slot (seqlock mirror of the newest committed version) ---

  /// Read fast path: if the seqlock is stable and the mirrored version is
  /// visible at `snapshot`, deposit the pair and return true — zero pointer
  /// chases. Returns false (caller walks the permanent list) when the slot
  /// is mid-publication, torn, or holds a version newer than the snapshot.
  bool try_read_home(Version snapshot, Word& value_out,
                     Version& version_out) const noexcept {
    const std::uint64_t s1 = home_seq_.load(std::memory_order_acquire);
    if (s1 & 1) return false;  // publication in flight
    // Chaos perturbation only (delay/yield): stretches the window between
    // the two seq loads against concurrent write-back publication and trim.
    TXF_FP_POINT("stm.read.home");
    const Version ver = home_version_.load(std::memory_order_relaxed);
    const Word val = home_value_.load(std::memory_order_relaxed);
    // The fence orders the data loads before the re-read of the sequence:
    // if seq is unchanged, the (version, value) pair is the one published
    // together (Boehm-style seqlock; data is atomic so TSan sees no race).
    std::atomic_thread_fence(std::memory_order_acquire);
    if (home_seq_.load(std::memory_order_relaxed) != s1) return false;
    if (ver > snapshot) return false;  // too new for this snapshot
    value_out = val;
    version_out = ver;
    return true;
  }

  /// Publish the newest committed version into the home slot. Idempotent
  /// and safe for concurrent helpers: all racers for one box carry the SAME
  /// (version, value) pair — write-back partitions hold one node per box
  /// per batch and batches are serialized — so the seq CAS only arbitrates
  /// who performs the (tiny) two-store critical section. MUST complete, on
  /// at least one helper, before the batch's clock advance: every helper
  /// calls this from its idempotent write-back sweep, so the helper that
  /// advances the clock has itself ensured home_version_ >= version.
  void publish_home(Version version, Word value) noexcept {
    std::uint64_t s = home_seq_.load(std::memory_order_acquire);
    for (;;) {
      if (home_version_.load(std::memory_order_relaxed) >= version) return;
      if (s & 1) {
        // A racer is mid-publication of the same (or a newer) pair; once it
        // lands, the version check above terminates the loop.
        s = home_seq_.load(std::memory_order_acquire);
        continue;
      }
      if (home_seq_.compare_exchange_weak(s, s + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        break;
      }
    }
    // Inside the critical section nothing else can write the slot, and the
    // successful acq_rel CAS synchronized with the previous publication's
    // closing release — so THIS version check is authoritative. It guards
    // against a helper that stalled across an entire batch cycle waking up
    // and regressing the slot to its old batch's (older) version.
    if (home_version_.load(std::memory_order_relaxed) < version) {
      home_version_.store(version, std::memory_order_relaxed);
      home_value_.store(value, std::memory_order_relaxed);
    }
    home_seq_.fetch_add(1, std::memory_order_release);
  }

  /// Mirrored newest-committed version (tests/diagnostics; racy by nature).
  Version home_version() const noexcept {
    return home_version_.load(std::memory_order_relaxed);
  }

  /// Pre-publication re-initialization of the version-0 mirror (see
  /// VBox::unsafe_init): box must still be private to one thread.
  void unsafe_set_home(Word value) noexcept {
    home_value_.store(value, std::memory_order_relaxed);
  }

  // --- permanent list ---

  /// Newest committed version node (acquire; safe to traverse inside an
  /// EBR guard or while the env is quiescent).
  const PermanentVersion* permanent_head() const noexcept {
    return permanent_.load(std::memory_order_acquire);
  }

  /// Newest committed version visible at `snapshot`. `steps`, when
  /// non-null, receives the walk length (for the read-path histogram).
  const PermanentVersion* read_permanent(
      Version snapshot, std::size_t* steps = nullptr) const noexcept {
    return find_visible(permanent_head(), snapshot, steps);
  }

  /// Number of committed versions currently reachable from the head
  /// (diagnostics: the resource-bound invariant the soak harness checks).
  /// Racy against concurrent write-back/trim by nature; call inside an EBR
  /// guard, or while the env is quiescent for an exact answer. The
  /// trimmed_tail() sentinel is not counted.
  std::size_t permanent_length() const noexcept {
    std::size_t n = 0;
    const PermanentVersion* p = permanent_head();
    while (p != nullptr && p != trimmed_tail()) {
      ++n;
      p = p->next.load(std::memory_order_acquire);
    }
    return n;
  }

  /// Commit write-back: link `node` in front of `expected`. Idempotence for
  /// helped commits comes from helpers sharing one pre-allocated node: the
  /// first CAS wins and later helpers observe head->version >= node->version.
  bool cas_permanent_head(PermanentVersion* expected,
                          PermanentVersion* node) noexcept {
    return permanent_.compare_exchange_strong(expected, node,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
  }

  /// Retire versions strictly older than the newest one visible at
  /// `min_snapshot` (they can never be read again). Caller must be inside an
  /// EBR guard of `domain`.
  ///
  /// The whole operation — including the search for the cut point — runs
  /// under the `trimming_` flag: a racing trimmer whose `keep` search
  /// overlapped another trimmer's cut could otherwise land inside the
  /// already-detached (and retired) segment and retire the same nodes a
  /// second time.
  void trim(Version min_snapshot, util::EpochDomain& domain) {
    bool expected = false;
    if (!trimming_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return;  // another thread is trimming this box
    }
    PermanentVersion* keep = permanent_.load(std::memory_order_acquire);
    while (keep != nullptr &&
           keep->version.load(std::memory_order_acquire) > min_snapshot)
      keep = keep->next.load(std::memory_order_acquire);
    // Cut with the trimmed_tail() sentinel, not nullptr: write-back installs
    // a node's `next` via CAS-from-nullptr, so the non-null sentinel keeps a
    // stalled helper from re-pointing `keep->next` at the retired segment.
    PermanentVersion* old =
        keep != nullptr ? keep->next.exchange(trimmed_tail(),
                                              std::memory_order_acq_rel)
                        : nullptr;
    trimming_.store(false, std::memory_order_release);
    while (old != nullptr && old != trimmed_tail()) {
      PermanentVersion* next = old->next.load(std::memory_order_relaxed);
      // Leaf-version publication contract (containers/tx_btree.hpp): when a
      // box stores an owning pointer, retiring the version node also retires
      // the heap object it points at — through the same grace period, so a
      // reader that resolved this version inside its EBR guard can still
      // dereference the payload.
      if (value_reclaimer_ != nullptr && old->value != 0)
        domain.retire(reinterpret_cast<void*>(old->value), value_reclaimer_);
      retire_node(old, domain);
      old = next;
    }
  }

  /// Install an owning-pointer deleter for this box's Words. Must be called
  /// while the box is still private to the constructing thread (same window
  /// as VBox::unsafe_init): trimmers read the pointer unsynchronized.
  /// Once installed, committed values are owned by the version list — trim
  /// and the destructor reclaim superseded values; writers must never
  /// publish the same pointer twice.
  void set_value_reclaimer(ValueReclaimer r) noexcept { value_reclaimer_ = r; }
  ValueReclaimer value_reclaimer() const noexcept { return value_reclaimer_; }

  /// Retire a version node through `domain`, recycling it into the
  /// commit-path node pool once the grace period expires (defined in
  /// commit_queue.cpp next to the pool).
  static void retire_node(PermanentVersion* node, util::EpochDomain& domain);

  // --- tentative list (head doubles as the per-tree lock, §IV-A) ---

  /// Head of the tentative (uncommitted, tree-owned) version list; a
  /// non-null head from another tree is the eager write-write conflict
  /// signal (Alg. 1, ownedbyAnotherTree).
  core::TentativeVersion* tentative_head() const noexcept {
    return tentative_.load(std::memory_order_acquire);
  }

  /// Claim/extend the tentative list; failure means another tree owns the
  /// box (the caller's tree aborts and restarts in fallback mode).
  bool cas_tentative_head(core::TentativeVersion* expected,
                          core::TentativeVersion* desired) noexcept {
    return tentative_.compare_exchange_strong(expected, desired,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
  }

  /// Unconditional head store — only valid for the tree that already owns
  /// the list (abort cleanup, top-commit detach).
  void store_tentative_head(core::TentativeVersion* v) noexcept {
    tentative_.store(v, std::memory_order_release);
  }

 private:
  // Home slot first: the dominant read touches only these three words (plus
  // tentative_ on the tree path), all in the box's first cache line.
  std::atomic<std::uint64_t> home_seq_{0};   // even = stable, odd = publishing
  std::atomic<Version> home_version_{0};
  std::atomic<Word> home_value_;
  std::atomic<PermanentVersion*> permanent_;
  std::atomic<core::TentativeVersion*> tentative_{nullptr};
  std::atomic<bool> trimming_{false};
  // Plain pointer by design: written once pre-publication (see setter).
  ValueReclaimer value_reclaimer_ = nullptr;
};

// --- typed wrapper -------------------------------------------------------

/// Pack a small trivially-copyable value into the STM word.
template <typename T>
Word pack_word(const T& v) noexcept {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(Word),
                "VBox<T> requires trivially copyable T of at most 8 bytes; "
                "store larger objects behind a pointer to an immutable "
                "record (see containers/)");
  Word w = 0;
  std::memcpy(&w, &v, sizeof(T));
  return w;
}

template <typename T>
T unpack_word(Word w) noexcept {
  T v;
  std::memcpy(&v, &w, sizeof(T));
  return v;
}

/// Typed versioned box. All access goes through a transactional context
/// (`Ctx` is any type exposing `Word read(VBoxImpl&)` and
/// `void write(VBoxImpl&, Word)` — flat transactions and sub-transactions
/// both qualify).
template <typename T>
class VBox {
 public:
  /// The initial value is committed at version 0 — visible to every
  /// transaction from the box's first publication. See the LIFETIME
  /// CONTRACT above: one StmEnv/Runtime per box, for its whole life.
  explicit VBox(const T& initial = T{}) : impl_(pack_word(initial)) {}

  /// Transactional read. Thread-safe from any number of concurrent
  /// transactions. May abort the calling attempt (by throwing the
  /// engine's internal abort exception) when the snapshot is no longer
  /// serializable — user code must let such exceptions propagate so
  /// atomically() can retry.
  template <typename Ctx>
  T get(Ctx& ctx) const {
    return unpack_word<T>(ctx.read(impl_));
  }

  /// Transactional write (buffered; nothing is visible outside the
  /// transaction until its top-level commit). A sub-transaction write may
  /// hit a box owned by another tree and abort the transaction, which
  /// restarts in fallback mode; same abort-propagation rule as get().
  template <typename Ctx>
  void put(Ctx& ctx, const T& value) {
    ctx.write(impl_, pack_word(value));
  }

  /// Non-transactional peek at the latest committed value. For tests,
  /// initialization, and post-quiescence inspection only.
  T peek_committed() const noexcept {
    return unpack_word<T>(impl_.permanent_head()->value);
  }

  /// Overwrite the initial committed value in place. Only safe while the
  /// box is still private to the constructing thread (e.g. wiring up
  /// container sentinels before publication). Keeps the home-slot mirror in
  /// sync with the version-0 node it shadows.
  void unsafe_init(const T& value) noexcept {
    const Word w = pack_word(value);
    const_cast<PermanentVersion*>(impl_.permanent_head())->value = w;
    impl_.unsafe_set_home(w);
  }

  VBoxImpl& impl() noexcept { return impl_; }
  const VBoxImpl& impl() const noexcept { return impl_; }

 private:
  mutable VBoxImpl impl_;
};

}  // namespace txf::stm
