#include "dram/bank.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace hbmrd::dram {

namespace {

/// Retention decay is only evaluated when a row went unrefreshed for longer
/// than this floor. Manufacturers guarantee no retention errors within the
/// 32 ms refresh window (Sec. 3.1); the floor sits just above tREFW so the
/// periodic refresh never pays retention scans, and just below the 34.8 ms
/// profiling duration of the paper's footnote 6.
constexpr double kRetentionFloorSeconds = 0.033;

/// Cells more than this many sigma below the row median are ignored when
/// the accumulated dose cannot plausibly reach them; deterministic early-out
/// for the per-cell threshold scan.
constexpr double kThresholdScanSigma = 6.0;

/// Candidate-prefix scans that would visit more than this many cells
/// switch to the word-parallel bitplane scan instead (the flip set is
/// identical either way). The crossover is observable via the
/// device.sense_cells_visited / device.sense_word_ops counters.
constexpr std::size_t kCandidateScanLimit = 512;

/// Physical distances of the victims one activation disturbs.
constexpr std::array<int, 4> kNeighborDistances = {-2, -1, 1, 2};

/// Memoized per-dose flip probabilities (one normal_cdf per population).
struct DoseProb {
  double dose;
  double outlier_probability;
  double weak_probability;
  double bulk_probability;

  /// The probability of a cell's population (outlier wins over weak).
  [[nodiscard]] double of(bool outlier, bool weak) const {
    if (outlier) return outlier_probability;
    return weak ? weak_probability : bulk_probability;
  }
};

}  // namespace

/// Per-bank scratch for the sense/hammer hot paths; lazily allocated so
/// only banks that actually sense disturbed rows pay for it.
struct Bank::SenseArena {
  /// One mask group of the per-word dose-class split: cells of one
  /// intra-row coupling half that share the running dose so far.
  struct Group {
    std::uint64_t mask;
    double dose;
  };
  /// One materialized dose class: its dose and memoized probabilities.
  struct ClassEntry {
    double dose;
    DoseProb p;
  };

  // Leaky plane and retention uniforms of the lazy min-retention scan
  // (rows whose summary is not built yet).
  std::array<std::uint64_t, RowBits::kWords> leaky_plane{};
  std::vector<double> retention_u;

  // Ping-pong buffers for the per-word class split (<= 64 non-empty
  // groups can exist at any stage: they partition 64 bits).
  std::array<Group, 64> group_a{};
  std::array<Group, 64> group_b{};
  std::vector<ClassEntry> classes;
  /// Per-epoch dose terms, indexed [intra * 2 + same] (one sense's ledger).
  std::vector<std::array<double, 4>> epoch_terms;

  // Per-sense DoseProb ring memo: proper round-robin eviction once full
  // (the old fixed-slot scheme silently thrashed slot 15 forever).
  std::array<DoseProb, 16> memo{};
  std::size_t memo_size = 0;
  std::size_t memo_next = 0;

  /// Scratch for the candidate-driven sense scan.
  std::vector<int> candidates;
  /// Scratch for bulk_hammer's sorted hammered-row lookup.
  std::vector<int> hammered_rows;

  /// Resets the per-sense memos and, when the sense checks disturbance,
  /// tabulates each epoch's dose term for both scans. Term by term this is
  /// the per-cell fold: coupling depends only on victim/aggressor equality,
  /// so coupling(true, same, intra) is the double coupling(value,
  /// aggressor_bit, intra) yields, and every cell adds its terms in epoch
  /// order starting from 0.0.
  void begin_sense(const disturb::FaultModel& fault,
                   const disturb::DoseLedger& ledger, bool check_disturb) {
    memo_size = 0;
    memo_next = 0;
    classes.clear();
    if (!check_disturb) return;
    const auto& epochs = ledger.epochs();
    epoch_terms.resize(epochs.size());
    for (std::size_t ei = 0; ei < epochs.size(); ++ei) {
      const auto& e = epochs[ei];
      for (int k = 0; k < 4; ++k) {
        epoch_terms[ei][static_cast<std::size_t>(k)] =
            e.dose() * fault.distance_factor(e.distance) *
            fault.coupling(true, (k & 1) != 0, (k & 2) != 0);
      }
    }
  }

  /// Flip probabilities of each population at an effective dose.
  /// threshold <= dose is equivalent to comparing the cell's raw uniform
  /// against Phi(ln(dose / median) / sigma) of the cell's population;
  /// cells fall into a handful of identical dose classes (victim bit x
  /// aggressor bits x intra bonus), so the CDFs are memoized per distinct
  /// dose. The memo is a ring: once full, slots are overwritten
  /// round-robin; each overwrite counts one of `evictions`.
  DoseProb flip_probabilities(const disturb::RowContext& ctx, double dose,
                              std::uint64_t& evictions) {
    for (std::size_t i = 0; i < memo_size; ++i) {
      if (memo[i].dose == dose) return memo[i];
    }
    DoseProb entry{dose, 0.0, 0.0, 0.0};
    if (dose > 0.0) {
      entry.outlier_probability = disturb::FaultModel::normal_cdf(
          std::log(dose / ctx.outlier_median) / ctx.outlier_sigma);
      entry.weak_probability = disturb::FaultModel::normal_cdf(
          std::log(dose / ctx.weak_median) / ctx.weak_sigma);
      entry.bulk_probability = disturb::FaultModel::normal_cdf(
          std::log(dose / ctx.bulk_median) / ctx.bulk_sigma);
    }
    std::size_t slot;
    if (memo_size < memo.size()) {
      slot = memo_size++;
    } else {
      slot = memo_next;
      memo_next = (memo_next + 1) % memo.size();
      ++evictions;
    }
    memo[slot] = entry;
    return entry;
  }

  /// flip_probabilities of a bitplane dose class (its dose before the
  /// temperature factor), memoized per class for the whole sense.
  DoseProb class_probabilities(const disturb::RowContext& ctx, double dose,
                               double temp_vuln, std::uint64_t& evictions) {
    for (const auto& c : classes) {
      if (c.dose == dose) return c.p;
    }
    const DoseProb p = flip_probabilities(ctx, dose * temp_vuln, evictions);
    classes.push_back({dose, p});
    return p;
  }
};

/// What one sense checks, as decided by the gates before any cell is read.
struct Bank::SensePlan {
  double elapsed_s = 0.0;
  double temp_vuln = 0.0;
  /// Upper bound of any cell's effective dose: full coupling, intra bonus.
  double max_dose = 0.0;
  bool check_retention = false;
  bool check_disturb = false;
  /// Retention failure bound on each population's raw uniform; <= 0 means
  /// no cell of the population can fail at this elapsed time.
  double leaky_u_max = 0.0;
  double normal_u_max = 0.0;
  disturb::RowContext ctx;
};

Bank::Bank(BankAddress address, const disturb::FaultModel* fault_model,
           const Environment* env, CheckpointLadder* ladder,
           TimingParams timing, disturb::BankThresholdCache& threshold_cache)
    : address_(address),
      fault_(fault_model),
      env_(env),
      ladder_(ladder),
      timing_(timing),
      checker_(timing),
      threshold_cache_(&threshold_cache) {
  validate(address_);
  if (fault_ == nullptr || env_ == nullptr || ladder_ == nullptr) {
    throw std::invalid_argument(
        "Bank: fault model, environment and checkpoint ladder required");
  }
}

Bank::Bank(Bank&&) noexcept = default;
Bank& Bank::operator=(Bank&&) noexcept = default;
Bank::~Bank() = default;

Bank::SenseArena& Bank::arena() {
  if (!arena_) arena_ = std::make_unique<SenseArena>();
  return *arena_;
}

void Bank::check_row(int physical_row) const {
  if (physical_row < 0 || physical_row >= kRowsPerBank) {
    throw std::out_of_range("physical row " + std::to_string(physical_row));
  }
}

Bank::RowState* Bank::peek_state(int physical_row) const {
  if (!slot_of_row_ || physical_row < 0 || physical_row >= kRowsPerBank) {
    return nullptr;
  }
  const std::uint16_t slot = slot_of_row_[physical_row];
  return slot == kNoSlot ? nullptr : row_nodes_[slot].get();
}

Bank::RowState& Bank::add_row(int physical_row) {
  if (!slot_of_row_) {
    slot_of_row_ = std::make_unique_for_overwrite<std::uint16_t[]>(
        static_cast<std::size_t>(kRowsPerBank));
    std::fill_n(slot_of_row_.get(), kRowsPerBank, kNoSlot);
  }
  std::uint16_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint16_t>(row_nodes_.size());
    row_nodes_.push_back(std::make_unique<RowState>());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    *row_nodes_[slot] = RowState{};
  }
  slot_of_row_[physical_row] = slot;
  return *row_nodes_[slot];
}

void Bank::erase_row(int physical_row) {
  free_slots_.push_back(slot_of_row_[physical_row]);
  slot_of_row_[physical_row] = kNoSlot;
}

Bank::RowState& Bank::state(int physical_row, Cycle now) {
  check_row(physical_row);
  if (RowState* existing = peek_state(physical_row)) {
    cow_touch(physical_row, *existing);
    return *existing;
  }
  RowState& rs = add_row(physical_row);
  auto words = rs.bits.words();
  // A cached summary carries the row's power-on plane verbatim; fresh
  // materialization of a cached row skips the per-word hash pass.
  if (const disturb::RowThresholdSummary* cached =
          threshold_cache_->peek(physical_row)) {
    std::copy(cached->power_on.begin(), cached->power_on.end(),
              words.begin());
  } else {
    for (int w = 0; w < RowBits::kWords; ++w) {
      words[static_cast<std::size_t>(w)] =
          fault_->power_on_word(address_, physical_row, w);
    }
  }
  rs.last_restore = now;
  if (joined_ != 0) {
    // The row had no state at push time: record an erase pre-image.
    layers_.back().pre.emplace(physical_row, std::nullopt);
    rs.cow_epoch = joined_;
  }
  return rs;
}

Bank::RowState* Bank::find_state(int physical_row) {
  RowState* rs = peek_state(physical_row);
  if (rs != nullptr) cow_touch(physical_row, *rs);
  return rs;
}

const disturb::DoseLedger* Bank::ledger(int physical_row) const {
  const RowState* rs = peek_state(physical_row);
  return rs == nullptr ? nullptr : &rs->ledger;
}

const RowBits* Bank::stored_bits(int physical_row) const {
  const RowState* rs = peek_state(physical_row);
  return rs == nullptr ? nullptr : &rs->bits;
}

std::optional<Cycle> Bank::last_restore(int physical_row) const {
  const RowState* rs = peek_state(physical_row);
  if (rs == nullptr) return std::nullopt;
  return rs->last_restore;
}

void Bank::join_top_rung() {
  joined_ = ladder_->generation();
  if (joined_ == 0) return;  // the ladder was discarded
  ladder_->joins_.push_back({ladder_->modes_.size() - 1, this});
  layers_.push_back(CheckpointLayer{
      {}, refresh_pointer_, checker_, defense_ ? defense_->clone() : nullptr});
}

void Bank::restore_checkpoint() {
  CheckpointLayer& layer = layers_.back();
  // The ladder rewinds newest layers first; older layers overwrite, so
  // every row lands on its value as of the oldest rewound push.
  for (auto& [row, pre] : layer.pre) {
    RowState* current = peek_state(row);
    if (pre) {
      if (current == nullptr) {
        current = &add_row(row);
      } else if (pre->min_retention_ref_s < 0) {
        // The retention floor is a pure function of the row's fixed cell
        // parameters, so a value computed after the push is still valid
        // before it — keep it instead of rescanning 8K cells per probe.
        pre->min_retention_ref_s = current->min_retention_ref_s;
      }
      *current = std::move(*pre);
    } else if (current != nullptr) {
      erase_row(row);
    }
  }
  refresh_pointer_ = layer.refresh_pointer;
  checker_ = layer.checker;
  open_row_.reset();  // push requires a precharged bank
  defense_ = std::move(layer.defense);
  // counters_ deliberately keeps counting (represented work is monotone).
  layers_.pop_back();
}

std::size_t CheckpointLadder::push(const ModeRegisters& modes) {
  modes_.push_back(modes);
  generation_ = ++generations_issued_;
  return modes_.size() - 1;
}

const ModeRegisters& CheckpointLadder::restore(std::size_t index) {
  if (index >= modes_.size()) {
    throw std::out_of_range("restore_checkpoint: no such checkpoint");
  }
  // Newest join first: a bank that joined several rewound rungs pops its
  // layers newest first and ends on the oldest one's state.
  for (; !joins_.empty() && joins_.back().rung >= index; joins_.pop_back()) {
    joins_.back().bank->restore_checkpoint();
  }
  modes_.resize(index + 1);
  generation_ = ++generations_issued_;  // rung `index` takes fresh joins
  return modes_.back();
}

void CheckpointLadder::discard() {
  for (const Join& join : joins_) join.bank->layers_.clear();
  joins_.clear();
  modes_.clear();
  generation_ = 0;
}

int Bank::open_row() const {
  if (!open_row_) throw std::logic_error("open_row: bank is precharged");
  return *open_row_;
}

void Bank::sense_and_restore(int physical_row, RowState& row, Cycle now) {
  SensePlan plan;
  if (sense_gates(physical_row, row, now, plan)) {
    // Flips are decided against a snapshot so that materializing one flip
    // does not change a neighbouring cell's intra-row coupling mid-scan.
    const RowBits snapshot = row.bits;
    const disturb::RowThresholdSummary& summary =
        threshold_cache_->get(*fault_, physical_row);
    arena().begin_sense(*fault_, row.ledger, plan.check_disturb);
    const bool changed = collect_candidates(plan, summary)
                             ? candidate_scan(plan, summary, snapshot, row)
                             : bitplane_scan(plan, summary, snapshot, row);
    if (changed) ++row.version;
  }
  row.ledger.clear();
  row.last_restore = now;
}

bool Bank::sense_gates(int physical_row, RowState& row, Cycle now,
                       SensePlan& plan) {
  plan.elapsed_s = cycles_to_seconds(now - row.last_restore);
  plan.check_retention = plan.elapsed_s > kRetentionFloorSeconds;
  plan.check_disturb = !row.ledger.empty();
  const double temp = env_->temperature_c;
  if (plan.check_retention) {
    // One cheap scan per row lifetime caches the row's weakest retention;
    // senses below it skip the per-cell retention pass entirely. A cached
    // summary (if the row's is already built) carries the identical value.
    if (row.min_retention_ref_s < 0.0) {
      const disturb::RowThresholdSummary* cached =
          threshold_cache_->peek(physical_row);
      row.min_retention_ref_s = cached
                                    ? cached->min_retention_ref_s
                                    : min_retention_ref_seconds(physical_row);
    }
    const auto& params = fault_->params();
    const double min_at_temp =
        row.min_retention_ref_s *
        std::exp2((params.retention_ref_temp_c - temp) /
                  params.retention_halving_c);
    if (plan.elapsed_s < min_at_temp) plan.check_retention = false;
  }

  plan.temp_vuln = fault_->temperature_vulnerability(temp);
  if (plan.check_disturb) {
    const double max_coupling = 1.0 + fault_->params().coupling_intra_bonus;
    for (const auto& e : row.ledger.epochs()) {
      plan.max_dose += e.dose() * fault_->distance_factor(e.distance);
    }
    plan.max_dose *= max_coupling * plan.temp_vuln;
    // Cheapest deterministic early-out: below the chip-wide threshold
    // floor nothing can flip, and the per-row context is not even needed
    // (the common case for pointer refreshes and benign traffic).
    if (plan.max_dose < fault_->global_threshold_floor()) {
      plan.check_disturb = false;
    }
  }
  if (!plan.check_retention && !plan.check_disturb) return false;

  plan.ctx = fault_->row_context(address_, physical_row);
  if (plan.check_disturb) {
    // Per-row refinement: no cell of this row can have a threshold below
    // weak_median * exp(-kThresholdScanSigma * sigma) of the widest
    // population (the outliers reach deepest).
    const double widest_sigma =
        std::max(plan.ctx.weak_sigma, plan.ctx.outlier_sigma);
    if (plan.max_dose < plan.ctx.weak_median *
                            std::exp(-kThresholdScanSigma * widest_sigma)) {
      plan.check_disturb = false;
    }
  }
  if (plan.check_retention) {
    // One failure probability threshold per population. Most senses see a
    // zero threshold for the normal population, so the scans visit only
    // leaky cells.
    auto u_max = [&](bool leaky) {
      const double med = fault_->retention_median_seconds(leaky, temp);
      const double s = fault_->retention_sigma(leaky);
      return disturb::FaultModel::normal_cdf(std::log(plan.elapsed_s / med) /
                                             s);
    };
    plan.leaky_u_max = u_max(true);
    plan.normal_u_max = u_max(false);
    if (plan.leaky_u_max <= 0.0 && plan.normal_u_max <= 0.0) {
      plan.check_retention = false;
    }
  }
  return plan.check_retention || plan.check_disturb;
}

bool Bank::collect_candidates(const SensePlan& plan,
                              const disturb::RowThresholdSummary& summary) {
  // Per population, only the sorted-by-uniform prefix that the
  // conservative bounds cannot rule out is a candidate.
  auto& candidates = arena().candidates;
  candidates.clear();
  const auto take_prefix = [&candidates](const std::vector<int>& order,
                                         const std::vector<double>& u,
                                         double bound) {
    for (int bit : order) {
      if (u[static_cast<std::size_t>(bit)] > bound) break;
      candidates.push_back(bit);
    }
  };
  if (plan.check_retention) {
    // A cell flips only if its retention uniform is <= its population's
    // u_max; the prefixes cover exactly those cells.
    if (plan.leaky_u_max > 0.0) {
      take_prefix(summary.leaky_by_u, summary.retention_u, plan.leaky_u_max);
    }
    if (plan.normal_u_max > 0.0) {
      take_prefix(summary.normal_by_u, summary.retention_u,
                  plan.normal_u_max);
    }
  }
  if (plan.check_disturb) {
    // A cell's effective dose is bounded by max_dose (full coupling, intra
    // bonus — the same bound the gates use), so its flip probability is
    // bounded by its population's CDF at max_dose. The bound dose is
    // inflated by 1e-9 to absorb the ulp-level difference between per-term
    // and post-sum coupling rounding, keeping the prefix a strict superset
    // of the exact flip set.
    const double dose_bound = plan.max_dose * (1.0 + 1e-9);
    const auto prob_bound = [dose_bound](double median, double sigma) {
      return disturb::FaultModel::normal_cdf(std::log(dose_bound / median) /
                                             sigma);
    };
    const disturb::RowContext& ctx = plan.ctx;
    const double outlier_bound =
        prob_bound(ctx.outlier_median, ctx.outlier_sigma);
    const double weak_bound = prob_bound(ctx.weak_median, ctx.weak_sigma);
    const double bulk_bound = prob_bound(ctx.bulk_median, ctx.bulk_sigma);
    if (outlier_bound > 0.0) {
      take_prefix(summary.outlier_by_u, summary.cell_u, outlier_bound);
    }
    if (weak_bound > 0.0) {
      take_prefix(summary.weak_by_u, summary.cell_u, weak_bound);
    }
    if (bulk_bound > 0.0) {
      take_prefix(summary.bulk_by_u, summary.cell_u, bulk_bound);
    }
  }
  // A huge candidate prefix means the bounds ruled little out: the
  // word-parallel scan beats visiting cells one by one. Flips are
  // identical either way.
  return candidates.size() <= kCandidateScanLimit;
}

bool Bank::candidate_scan(const SensePlan& plan,
                          const disturb::RowThresholdSummary& summary,
                          const RowBits& snapshot, RowState& row) {
  // Every candidate is decided by the exact per-cell expressions of the
  // sense model, with the summary's uniforms and flags standing in
  // (verbatim) for the fault-model hashes.
  using Summary = disturb::RowThresholdSummary;
  SenseArena& a = arena();
  auto& candidates = a.candidates;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  counters_.sense_cells_visited += candidates.size();

  const auto& epochs = row.ledger.epochs();
  bool changed = false;
  for (int bit : candidates) {
    const auto i = static_cast<std::size_t>(bit);
    const bool value = snapshot.get(bit);
    const std::uint8_t flags = summary.flags[i];
    if (value != ((flags & Summary::kTrueCell) != 0)) continue;  // discharged

    bool flip = false;
    if (plan.check_retention) {
      const double u_max =
          (flags & Summary::kLeaky) ? plan.leaky_u_max : plan.normal_u_max;
      flip = u_max > 0.0 && summary.retention_u[i] <= u_max;
    }
    if (!flip && plan.check_disturb) {
      const bool left = bit > 0 ? snapshot.get(bit - 1) : value;
      const bool right = bit + 1 < kRowBits ? snapshot.get(bit + 1) : value;
      const std::size_t intra = (left != value) || (right != value) ? 2 : 0;
      double dose = 0.0;
      for (std::size_t ei = 0; ei < epochs.size(); ++ei) {
        const bool same = epochs[ei].aggressor_bits.get(bit) == value;
        dose += a.epoch_terms[ei][intra + (same ? 1 : 0)];
      }
      dose *= plan.temp_vuln;
      const DoseProb p = a.flip_probabilities(plan.ctx, dose,
                                              counters_.dose_memo_evictions);
      const double probability = p.of((flags & Summary::kOutlier) != 0,
                                      (flags & Summary::kWeak) != 0);
      flip = probability > 0.0 && summary.cell_u[i] <= probability;
    }
    if (flip) {
      row.bits.set(bit, !value);
      ++counters_.bitflips_materialized;
      changed = true;
    }
  }
  return changed;
}

bool Bank::bitplane_scan(const SensePlan& plan,
                         const disturb::RowThresholdSummary& summary,
                         const RowBits& snapshot, RowState& row) {
  // Word-parallel scan over the whole row: per-cell predicates become
  // 64-wide mask operations, per-cell dose folds collapse into a handful
  // of dose classes per word, and flips apply as one XOR per word.
  SenseArena& a = arena();
  const auto& epochs = row.ledger.epochs();
  const std::size_t n_epochs = epochs.size();
  const std::uint64_t* sw = snapshot.words().data();
  bool changed = false;
  for (int w = 0; w < RowBits::kWords; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    const std::uint64_t v = sw[wi];
    const std::uint64_t charged = ~(v ^ summary.true_plane[wi]);
    std::uint64_t flips = 0;

    if (plan.check_retention) {
      const std::uint64_t lk = summary.leaky_plane[wi];
      std::uint64_t cand = charged;
      // A population with a zero failure threshold cannot flip.
      if (plan.leaky_u_max <= 0.0) cand &= ~lk;
      if (plan.normal_u_max <= 0.0) cand &= lk;
      counters_.sense_cells_visited +=
          static_cast<std::uint64_t>(std::popcount(cand));
      while (cand != 0) {
        const int b = std::countr_zero(cand);
        cand &= cand - 1;
        const double u_max =
            ((lk >> b) & 1u) != 0 ? plan.leaky_u_max : plan.normal_u_max;
        if (summary.retention_u[wi * 64 + static_cast<std::size_t>(b)] <=
            u_max) {
          flips |= 1ull << b;
        }
      }
    }

    const std::uint64_t cand = charged & ~flips;
    if (plan.check_disturb && cand != 0) {
      // Neighbour planes with cross-word carries; edge cells borrow their
      // own value (differs = 0), matching the per-cell model.
      std::uint64_t left = v << 1;
      left |= w > 0 ? sw[wi - 1] >> 63 : v & 1ull;
      std::uint64_t right = v >> 1;
      right |= (w + 1 < RowBits::kWords ? sw[wi + 1] & 1ull
                                        : (v >> 63) & 1ull)
               << 63;
      const std::uint64_t intra = (v ^ left) | (v ^ right);
      const std::uint64_t outlier = summary.outlier_plane[wi];
      const std::uint64_t weak = summary.weak_plane[wi];

      // Split the word's cells into dose classes: once on intra-row
      // coupling (it selects each epoch's term pair), then per half once
      // per epoch on "victim bit equals the aggressor bit", each group
      // adding that epoch's term to its running dose. Non-empty groups
      // partition 64 bits, so at most 64 exist at any stage.
      counters_.sense_word_ops += n_epochs + 1;
      for (const bool in_intra : {false, true}) {
        const std::uint64_t half = cand & (in_intra ? intra : ~intra);
        if (half == 0) continue;
        const std::size_t t = in_intra ? 2 : 0;
        SenseArena::Group* cur = a.group_a.data();
        SenseArena::Group* nxt = a.group_b.data();
        cur[0] = {half, 0.0};
        int n_cur = 1;
        for (std::size_t ei = 0; ei < n_epochs; ++ei) {
          const std::uint64_t same =
              ~(v ^ epochs[ei].aggressor_bits.words()[wi]);
          const double term_diff = a.epoch_terms[ei][t];
          const double term_same = a.epoch_terms[ei][t + 1];
          int n_nxt = 0;
          for (int g = 0; g < n_cur; ++g) {
            const std::uint64_t m1 = cur[g].mask & same;
            const std::uint64_t m0 = cur[g].mask & ~same;
            if (m1 != 0) nxt[n_nxt++] = {m1, cur[g].dose + term_same};
            if (m0 != 0) nxt[n_nxt++] = {m0, cur[g].dose + term_diff};
          }
          std::swap(cur, nxt);
          n_cur = n_nxt;
        }

        for (int g = 0; g < n_cur; ++g) {
          const DoseProb p =
              a.class_probabilities(plan.ctx, cur[g].dose, plan.temp_vuln,
                                    counters_.dose_memo_evictions);
          const double p_max = std::max(
              {p.outlier_probability, p.weak_probability, p.bulk_probability});
          if (p_max <= 0.0) continue;
          std::uint64_t m = cur[g].mask;
          counters_.sense_cells_visited +=
              static_cast<std::uint64_t>(std::popcount(m));
          while (m != 0) {
            const int b = std::countr_zero(m);
            m &= m - 1;
            const double u =
                summary.cell_u[wi * 64 + static_cast<std::size_t>(b)];
            // Sound screen: every population's probability <= p_max.
            if (u > p_max) continue;
            const double probability =
                p.of(((outlier >> b) & 1u) != 0, ((weak >> b) & 1u) != 0);
            if (probability > 0.0 && u <= probability) flips |= 1ull << b;
          }
        }
      }
    }

    if (flips != 0) {
      // Flips only discharge charged cells, so the XOR is exactly a per-bit
      // set(bit, !value).
      row.bits.words()[wi] ^= flips;
      counters_.bitflips_materialized +=
          static_cast<std::uint64_t>(std::popcount(flips));
      changed = true;
    }
  }
  counters_.sense_word_ops += static_cast<std::uint64_t>(RowBits::kWords) *
                              (1u + (plan.check_retention ? 1u : 0u));
  return changed;
}

double Bank::min_retention_ref_seconds(int physical_row) {
  // Word-batched: one hoisted hash prefix per property instead of two
  // hash_key folds per cell; the resulting uniforms are bit-identical.
  const auto prefixes = fault_->row_hash_prefixes(address_, physical_row);
  SenseArena& a = arena();
  disturb::FaultModel::fill_membership_plane(
      prefixes.leaky, fault_->params().leaky_cell_fraction, a.leaky_plane);
  a.retention_u.resize(static_cast<std::size_t>(kRowBits));
  disturb::FaultModel::fill_retention_uniform_row(
      prefixes.leaky_retention, prefixes.normal_retention, a.leaky_plane,
      a.retention_u);
  counters_.sense_word_ops +=
      static_cast<std::uint64_t>(2 * RowBits::kWords);
  return disturb::min_retention_ref_seconds(fault_->params(), a.leaky_plane,
                                            a.retention_u);
}

void Bank::disturb_neighbors(int aggressor_row, const RowState& aggressor,
                             double dose, Cycle now) {
  // Row states are separate nodes, so creating a victim's state leaves
  // `aggressor` in place.
  const int subarray = subarray_of_row(aggressor_row);
  const int lo = subarray_start(subarray);
  const int hi = subarray_start(subarray + 1);
  for (int d : kNeighborDistances) {
    const int victim = aggressor_row + d;
    if (victim < lo || victim >= hi) continue;
    // The epoch records the aggressor's position relative to the victim.
    state(victim, now).ledger.add(-d, aggressor.version, aggressor.bits,
                                  dose);
  }
}

void Bank::activate(int physical_row, Cycle now) {
  check_row(physical_row);
  join_ladder();
  checker_.on_activate(now);
  ++counters_.activations;
  open_row_ = physical_row;
  RowState& rs = state(physical_row, now);
  sense_and_restore(physical_row, rs, now);
  if (defense_) defense_->on_activate(physical_row, now);
}

void Bank::precharge(Cycle now) {
  if (!open_row_) {
    checker_.on_precharge(now);  // legal no-op: changes nothing, no join
    return;
  }
  join_ladder();
  const Cycle on_cycles = now - checker_.open_since();
  checker_.on_precharge(now);
  const int aggressor = *open_row_;
  open_row_.reset();
  const double dose = fault_->taggon_factor(on_cycles);
  // The ACT gave the open row its state.
  disturb_neighbors(aggressor, *find_state(aggressor), dose, now);
}

void Bank::read_column(int column, std::span<std::uint64_t> out, Cycle now) {
  checker_.on_read(now);
  peek_state(open_row())->bits.get_column(column, out);
}

void Bank::write_column(int column, std::span<const std::uint64_t> data,
                        Cycle now) {
  join_ladder();
  checker_.on_write(now);
  RowState* rs = find_state(open_row());
  rs->bits.set_column(column, data);
  ++rs->version;
}

void Bank::refresh_row(int physical_row, Cycle now) {
  check_row(physical_row);
  join_ladder();
  if (RowState* rs = find_state(physical_row)) {
    sense_and_restore(physical_row, *rs, now);
  }
  // Rows without state are implicitly fully charged; nothing to do.
}

void Bank::refresh(Cycle now) {
  join_ladder();
  checker_.on_refresh(now);
  ++counters_.refresh_commands;
  for (int i = 0; i < timing_.rows_per_ref(); ++i) {
    refresh_row(refresh_pointer_, now);
    refresh_pointer_ = (refresh_pointer_ + 1) % kRowsPerBank;
  }
  if (defense_) {
    for (int victim : defense_->on_refresh(now)) {
      if (victim < 0 || victim >= kRowsPerBank) continue;
      ++counters_.defense_victim_refreshes;
      refresh_row(victim, now);
      // A TRR victim refresh is a row activation in silicon, so it
      // disturbs the refreshed row's own neighbours — the HalfDouble
      // vector of Sec. 8.1. (Pointer refreshes are modeled as
      // disturbance-free to keep long refresh runs O(touched rows);
      // their per-row rate is 2 per tREFW and physically negligible.)
      if (RowState* rs = find_state(victim)) {
        disturb_neighbors(victim, *rs,
                          fault_->taggon_factor(timing_.t_ras), now);
      }
    }
  }
}

Cycle Bank::bulk_hammer(std::span<const HammerStep> steps,
                        std::uint64_t iterations, Cycle start) {
  if (steps.empty()) throw std::invalid_argument("bulk_hammer: no steps");
  if (iterations == 0) throw std::invalid_argument("bulk_hammer: 0 iters");
  if (open_row_) throw TimingViolation("bulk_hammer: bank must be precharged");
  for (const auto& s : steps) {
    check_row(s.row);
    if (s.on_cycles < timing_.t_ras) {
      throw TimingViolation("bulk_hammer: on-time below tRAS");
    }
  }
  join_ladder();

  // Canonical per-iteration layout: step k activates, stays open for its
  // on-time, precharges; the next ACT follows after max(tRP, tRC slack).
  std::vector<Cycle> act_offset(steps.size());
  Cycle t = 0;
  Cycle prev_act = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (k > 0) {
      t = std::max(t + timing_.t_rp, prev_act + timing_.t_rc);
    }
    act_offset[k] = t;
    prev_act = t;
    t += steps[k].on_cycles;  // PRE happens at t (>= ACT + tRAS)
  }
  // Period: distance between iteration starts; honours tRP after the last
  // PRE and tRC from the last ACT to the next iteration's first ACT.
  const Cycle period = std::max(t + timing_.t_rp, prev_act + timing_.t_rc);

  // Validate the boundary timing through the checker using the first
  // iteration, then (for multi-iteration bursts) replay the last iteration
  // so that subsequent commands see the correct history.
  auto replay_iteration = [&](Cycle iteration_start) {
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const Cycle act = iteration_start + act_offset[k];
      checker_.on_activate(act);
      checker_.on_precharge(act + steps[k].on_cycles);
    }
  };
  replay_iteration(start);
  if (iterations > 1) {
    replay_iteration(start + (iterations - 1) * period);
  }
  const Cycle end = start + (iterations - 1) * period + period;

  // Deduplicate hammered rows (refresh-window bursts repeat the same
  // aggressors and dummies dozens of times): sense each distinct row once
  // and resolve row-state pointers once instead of per step.
  auto& hammered_rows = arena().hammered_rows;
  hammered_rows.clear();
  hammered_rows.reserve(steps.size());
  for (const auto& s : steps) hammered_rows.push_back(s.row);
  std::sort(hammered_rows.begin(), hammered_rows.end());
  auto is_hammered = [&](int row) {
    return std::binary_search(hammered_rows.begin(), hammered_rows.end(),
                              row);
  };
  struct HammeredRow {
    int row;
    Cycle first_offset;
    Cycle last_offset;
    RowState* state = nullptr;
    /// By kNeighborDistances index; null = skip.
    std::array<RowState*, kNeighborDistances.size()> victims{};
  };
  std::vector<HammeredRow> rows_hit;
  rows_hit.reserve(steps.size());
  std::vector<std::uint32_t> row_of_step(steps.size());
  for (std::size_t k = 0; k < steps.size(); ++k) {
    std::size_t r = 0;
    while (r < rows_hit.size() && rows_hit[r].row != steps[k].row) ++r;
    if (r == rows_hit.size()) {
      rows_hit.push_back({steps[k].row, act_offset[k], act_offset[k], nullptr,
                          {}});
    } else {
      rows_hit[r].last_offset = act_offset[k];
    }
    row_of_step[k] = static_cast<std::uint32_t>(r);
  }

  ++counters_.bulk_hammer_windows;
  counters_.hammer_dedup_hits +=
      static_cast<std::uint64_t>(steps.size() - rows_hit.size());

  // Sense every hammered row once at its first activation, so pre-existing
  // dose materializes before the burst restores it. (Later activations of
  // the same row within the burst sense a just-restored row: a no-op.)
  for (auto& hr : rows_hit) {
    hr.state = &state(hr.row, start);
    sense_and_restore(hr.row, *hr.state, start + hr.first_offset);
  }
  // Resolve every victim once (row states are separate nodes, so the
  // pointers survive later inserts).
  for (auto& hr : rows_hit) {
    const int subarray = subarray_of_row(hr.row);
    const int lo = subarray_start(subarray);
    const int hi = subarray_start(subarray + 1);
    for (std::size_t di = 0; di < kNeighborDistances.size(); ++di) {
      const int victim = hr.row + kNeighborDistances[di];
      if (victim < lo || victim >= hi || is_hammered(victim)) continue;
      hr.victims[di] = &state(victim, start);
    }
  }

  // Apply the aggregated dose to victims that are not themselves hammered
  // (hammered rows restore themselves every iteration; their residual
  // single-iteration dose is dropped, see header). Kept per step so the
  // epoch merge order and dose summation order match the iterative path
  // bit for bit.
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const HammeredRow& hr = rows_hit[row_of_step[k]];
    const double unit = fault_->taggon_factor(steps[k].on_cycles);
    for (std::size_t di = 0; di < kNeighborDistances.size(); ++di) {
      RowState* victim = hr.victims[di];
      if (victim == nullptr) continue;
      victim->ledger.add(-kNeighborDistances[di], hr.state->version,
                         hr.state->bits, unit, iterations);
    }
    if (defense_) {
      defense_->on_activate_bulk(hr.row, iterations, end);
    }
    counters_.activations += iterations;
  }

  // Hammered rows were restored by their own final activation.
  for (const auto& hr : rows_hit) {
    hr.state->ledger.clear();
    hr.state->last_restore =
        start + (iterations - 1) * period + hr.last_offset;
  }
  return end;
}

}  // namespace hbmrd::dram
