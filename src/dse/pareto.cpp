#include "dse/pareto.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <span>
#include <stdexcept>

namespace wsnex::dse {

bool dominates(const Objectives& a, const Objectives& b) {
  assert(a.size() == b.size());
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

namespace detail {

void non_dominated_fronts_flat(const double* flat, std::size_t n,
                               std::size_t m, FrontScratch& scratch,
                               std::vector<std::size_t>& front) {
  non_dominated_fronts_flat(flat, n, m, {}, scratch, front);
}

void non_dominated_fronts_flat(const double* flat, std::size_t n,
                               std::size_t m,
                               std::span<const std::uint32_t> sorted_prefix,
                               FrontScratch& scratch,
                               std::vector<std::size_t>& front) {
  front.assign(n, 0);
  scratch.order.clear();
  if (n == 0) return;
  if (m == 0) return;  // zero-arity points are all equal: one shared front
  assert(sorted_prefix.size() <= n);

  // ENS-SS (Zhang et al. 2015, "efficient non-dominated sort, sequential
  // search"): process points in lexicographic order, so a point can only
  // be dominated by points already placed. For each point, find the first
  // existing front none of whose members dominates it (members are
  // scanned newest-first — lexicographically close members are the most
  // likely dominators, giving the early exit the O(MN^2) worst case
  // rarely pays). Front indices are a well-defined property of the point
  // set, so the result is identical to the classic Deb peeling.
  // Pack the primary sort key next to the index: most comparisons resolve
  // on the first objective without touching the point matrix. Ties fall
  // back to the full row; the processing order among exactly-equal rows
  // is irrelevant (they share a front either way), so none is imposed.
  // A presorted prefix (the survivors of the last generation) is merged
  // with the sorted remainder (the offspring) instead of re-sorting all
  // rows.
  const auto row_less = [flat, m](const FrontScratch::LexKey& a,
                                  const FrontScratch::LexKey& b) {
    if (a.first_objective != b.first_objective) {
      return a.first_objective < b.first_objective;
    }
    const double* pa = flat + a.index * m;
    const double* pb = flat + b.index * m;
    for (std::size_t k = 1; k < m; ++k) {
      if (pa[k] != pb[k]) return pa[k] < pb[k];
    }
    return false;
  };
  std::vector<FrontScratch::LexKey>& order = scratch.order;
  const std::size_t k = sorted_prefix.size();
  order.resize(n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t row = sorted_prefix[i];
    assert(row < k && "sorted_prefix must list rows 0..k-1");
    order[i] = {flat[row * m], row};
  }
  for (std::size_t i = k; i < n; ++i) {
    order[i] = {flat[i * m], static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
            row_less);
  if (k > 0 && k < n) {
    scratch.merged.resize(n);
    std::merge(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
               order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
               scratch.merged.begin(), row_less);
    order.swap(scratch.merged);
  }

  if (m == 3) {
    // Three-objective fast path. Every already-placed point q satisfies
    // q0 <= p0 (lexicographic processing), so "some member of front F
    // dominates p" collapses to a 2D query against F's staircase of
    // minimal (o1, o2) corners: the candidate corner is the one with the
    // largest o1 <= p1 (binary search; its o2 is the smallest among
    // eligible corners), and p is dominated iff that corner beats
    // (p1, p2) with the usual strictness rule — full (o1, o2) ties fall
    // back to the corner's smallest o0. This replaces the linear member
    // scan (quadratic once the population converges onto few fronts)
    // with an O(log |front|) probe.
    std::size_t fronts_used = 0;
    for (const FrontScratch::LexKey& key : order) {
      const std::size_t idx = key.index;
      const double* p = flat + idx * m;
      std::size_t f = 0;
      for (; f < fronts_used; ++f) {
        const std::vector<FrontScratch::StairStep>& stairs =
            scratch.staircases[f];
        // Largest o1 <= p1.
        std::size_t lo = 0, hi = stairs.size();
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (stairs[mid].o1 <= p[1]) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (lo == 0) break;  // no corner fits in o1: p joins this front
        const FrontScratch::StairStep& s = stairs[lo - 1];
        const bool dominated =
            s.o2 < p[2] ||
            (s.o2 == p[2] && (s.o1 < p[1] || s.o0_min < p[0]));
        if (!dominated) break;
      }
      if (f == fronts_used) {
        if (scratch.staircases.size() == fronts_used) {
          scratch.staircases.emplace_back();
        }
        scratch.staircases[fronts_used].clear();
        ++fronts_used;
      }
      // Merge p's corner into the staircase: corners it covers
      // (o1 >= p1 and o2 >= p2) form a contiguous run starting at the
      // first o1 >= p1; an exactly-equal corner already carries an
      // o0_min <= p0 (lex order), so nothing changes.
      std::vector<FrontScratch::StairStep>& stairs = scratch.staircases[f];
      std::size_t lo = 0, hi = stairs.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (stairs[mid].o1 < p[1]) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (!(lo < stairs.size() && stairs[lo].o1 == p[1] &&
            stairs[lo].o2 == p[2])) {
        std::size_t last = lo;
        while (last < stairs.size() && stairs[last].o2 >= p[2]) ++last;
        if (last == lo) {
          stairs.insert(stairs.begin() + static_cast<std::ptrdiff_t>(lo),
                        {p[1], p[2], p[0]});
        } else {
          stairs[lo] = {p[1], p[2], p[0]};
          stairs.erase(stairs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                       stairs.begin() + static_cast<std::ptrdiff_t>(last));
        }
      }
      front[idx] = f;
    }
    return;
  }

  std::size_t fronts_used = 0;
  for (const FrontScratch::LexKey& key : order) {
    const std::size_t idx = key.index;
    const double* p = flat + idx * m;
    std::size_t f = 0;
    for (; f < fronts_used; ++f) {
      const std::vector<std::uint32_t>& members = scratch.front_members[f];
      bool dominated = false;
      for (std::size_t k = members.size(); k-- > 0;) {
        if (dominates_row(flat + members[k] * m, p, m)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) break;
    }
    if (f == fronts_used) {
      if (scratch.front_members.size() == fronts_used) {
        scratch.front_members.emplace_back();
      }
      scratch.front_members[fronts_used].clear();
      ++fronts_used;
    }
    scratch.front_members[f].push_back(static_cast<std::uint32_t>(idx));
    front[idx] = f;
  }
}

}  // namespace detail

std::vector<std::size_t> non_dominated_fronts(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  std::vector<std::size_t> front(n, 0);
  if (n == 0) return front;
  const std::size_t m = points[0].size();
  std::vector<double> flat(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    assert(points[i].size() == m);
    std::copy(points[i].begin(), points[i].end(), flat.begin() + i * m);
  }
  detail::FrontScratch scratch;
  detail::non_dominated_fronts_flat(flat.data(), n, m, scratch, front);
  return front;
}

namespace detail {

void crowding_distances_flat(const double* vals, std::size_t n,
                             std::size_t m, std::vector<CrowdingKey>& keys,
                             std::vector<double>& out) {
  out.assign(n, 0.0);
  if (n == 0) return;
  if (n <= 2 && m > 0) {
    // Every row is a boundary of every objective, whatever the order.
    std::fill(out.begin(), out.end(), std::numeric_limits<double>::infinity());
    return;
  }
  keys.resize(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = {vals[i * m + obj], static_cast<std::uint32_t>(i)};
    }
    std::sort(keys.begin(), keys.end(),
              [](const CrowdingKey& a, const CrowdingKey& b) {
                return a.value < b.value;
              });
    const double lo = keys.front().value;
    const double hi = keys.back().value;
    out[keys.front().index] = std::numeric_limits<double>::infinity();
    out[keys.back().index] = std::numeric_limits<double>::infinity();
    if (hi == lo) continue;
    for (std::size_t k = 1; k + 1 < n; ++k) {
      out[keys[k].index] += (keys[k + 1].value - keys[k - 1].value) / (hi - lo);
    }
  }
}

}  // namespace detail

std::vector<double> crowding_distances(const std::vector<Objectives>& front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  const std::size_t m = front[0].size();
  std::vector<double> flat(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    assert(front[i].size() == m);
    std::copy(front[i].begin(), front[i].end(), flat.begin() + i * m);
  }
  std::vector<detail::CrowdingKey> keys;
  detail::crowding_distances_flat(flat.data(), n, m, keys, distance);
  return distance;
}

bool ParetoArchive::insert(Genome genome, Objectives objectives) {
  const std::span<const double> view(objectives);
  // Delegating would copy; reuse the already-materialized vector instead.
  if (!scan_and_evict(view)) return false;
  flat_.insert(flat_.end(), objectives.begin(), objectives.end());
  entries_.push_back({std::move(genome), std::move(objectives)});
  return true;
}

bool ParetoArchive::insert(const Genome& genome,
                           std::span<const double> objectives) {
  if (!scan_and_evict(objectives)) return false;
  flat_.insert(flat_.end(), objectives.begin(), objectives.end());
  entries_.push_back(
      {genome, Objectives(objectives.begin(), objectives.end())});
  return true;
}

namespace {

/// True iff some row of the n-row, arity-m matrix `rows` equals or
/// dominates `c` (no coordinate worse); `*hit` is then one such row.
/// Newest rows first: the insert keeps the latest rejector there. With
/// three objectives, four rows per step and no branch inside a step.
bool weakly_dominated(const double* rows, std::size_t n, std::size_t m,
                      const double* c, std::size_t* hit) {
  std::size_t i = n;
  if (m == 3) {
    const auto covers = [c](const double* e) {
      return !((e[0] > c[0]) | (e[1] > c[1]) | (e[2] > c[2]));
    };
    while (i >= 4) {
      i -= 4;
      const double* e = rows + 3 * i;
      const unsigned mask = static_cast<unsigned>(covers(e)) |
                            static_cast<unsigned>(covers(e + 3)) << 1 |
                            static_cast<unsigned>(covers(e + 6)) << 2 |
                            static_cast<unsigned>(covers(e + 9)) << 3;
      if (mask != 0) {
        *hit = i + static_cast<std::size_t>(std::bit_width(mask)) - 1;
        return true;
      }
    }
  }
  while (i-- > 0) {
    const double* e = rows + m * i;
    bool e_worse = false;
    for (std::size_t k = 0; k < m; ++k) e_worse |= e[k] > c[k];
    if (!e_worse) {
      *hit = i;
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParetoArchive::scan_and_evict(std::span<const double> objectives) {
  const std::size_t m = objectives.size();
  if (entries_.empty()) arity_ = m;
  assert(m == arity_ && "ParetoArchive: mixed objective arity");

  // Two passes. A member that equals or dominates the candidate cannot
  // coexist with a member the candidate dominates — the archive is
  // mutually non-dominated and dominance is transitive — so the first
  // pass decides rejection on its own, and only an accepted candidate
  // pays for the second, which evicts the members it dominates. Both the
  // decision and the surviving member set are independent of scan order
  // (entries() order is not part of the contract).
  const double* c = objectives.data();
  const std::size_t n = entries_.size();
  std::size_t rejector = 0;
  if (weakly_dominated(flat_.data(), n, m, c, &rejector)) {
    // Consecutive DSE candidates tend to be dominated by the same elite
    // member: move it to the newest slot, which the next scan reads first.
    const std::size_t newest = n - 1;
    if (rejector != newest) {
      std::swap(entries_[rejector], entries_[newest]);
      std::swap_ranges(flat_.begin() + rejector * m,
                       flat_.begin() + (rejector + 1) * m,
                       flat_.begin() + newest * m);
    }
    return false;
  }

  // Evict every member the candidate dominates (no candidate coordinate
  // worse; the first pass ruled out equality): swap-erase, scanning
  // backwards so the entry swapped in has already been examined.
  for (std::size_t i = n; i-- > 0;) {
    const double* e = flat_.data() + i * m;
    bool c_worse;
    if (m == 3) {
      c_worse = (c[0] > e[0]) | (c[1] > e[1]) | (c[2] > e[2]);
    } else {
      c_worse = false;
      for (std::size_t k = 0; k < m; ++k) c_worse |= c[k] > e[k];
    }
    if (c_worse) continue;
    const std::size_t last = entries_.size() - 1;
    if (i != last) {
      entries_[i] = std::move(entries_[last]);
      std::copy(flat_.begin() + last * m, flat_.begin() + (last + 1) * m,
                flat_.begin() + i * m);
    }
    entries_.pop_back();
    flat_.resize(last * m);
  }
  return true;
}

bool ParetoArchive::covered(const Objectives& objectives) const {
  const std::size_t m = objectives.size();
  assert(entries_.empty() || m == arity_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double* e = flat_.data() + i * m;
    bool e_worse = false;
    for (std::size_t k = 0; k < m; ++k) {
      if (e[k] > objectives[k]) {
        e_worse = true;
        break;
      }
    }
    if (!e_worse) return true;  // member equals or dominates `objectives`
  }
  return false;
}

bool same_entries(const ParetoArchive& a, const ParetoArchive& b) {
  if (a.size() != b.size()) return false;
  auto sorted = [](const ParetoArchive& archive) {
    std::vector<ArchiveEntry> out = archive.entries();
    std::sort(out.begin(), out.end(),
              [](const ArchiveEntry& x, const ArchiveEntry& y) {
                if (x.objectives != y.objectives) {
                  return x.objectives < y.objectives;
                }
                return x.genome < y.genome;
              });
    return out;
  };
  const std::vector<ArchiveEntry> sa = sorted(a);
  const std::vector<ArchiveEntry> sb = sorted(b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].genome != sb[i].genome ||
        sa[i].objectives != sb[i].objectives) {
      return false;
    }
  }
  return true;
}

double coverage_fraction(const std::vector<Objectives>& candidate,
                         const std::vector<Objectives>& reference) {
  if (reference.empty()) return 0.0;
  std::size_t covered = 0;
  for (const Objectives& r : reference) {
    for (const Objectives& c : candidate) {
      if (c == r || dominates(c, r)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(reference.size());
}

namespace {

/// 2-D hypervolume by sweeping the sorted front.
double hypervolume_2d(std::vector<Objectives> front, const Objectives& ref) {
  std::sort(front.begin(), front.end(),
            [](const Objectives& a, const Objectives& b) {
              return a[0] < b[0];
            });
  double volume = 0.0;
  double best_y = ref[1];
  for (const Objectives& p : front) {
    if (p[0] >= ref[0] || p[1] >= best_y) continue;
    volume += (ref[0] - p[0]) * (best_y - p[1]);
    best_y = p[1];
  }
  return volume;
}

/// Dominated area of the staircase (xs ascending, ys strictly descending)
/// w.r.t. the upper-right corner (ref_x, ref_y).
double staircase_area(const std::vector<double>& xs,
                      const std::vector<double>& ys, double ref_x,
                      double ref_y) {
  double area = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x_next = i + 1 < xs.size() ? xs[i + 1] : ref_x;
    area += (x_next - xs[i]) * (ref_y - ys[i]);
  }
  return area;
}

/// Inserts (x, y) into the staircase unless a step already dominates it;
/// evicts steps the new point dominates. Returns true when the staircase
/// changed (so callers can skip the area recompute otherwise).
bool staircase_insert(std::vector<double>& xs, std::vector<double>& ys,
                      double x, double y) {
  // Steps with step_x <= x sit before upper_bound(x); the last of them has
  // the smallest y among them (ys is descending), so it alone decides
  // whether the new point is dominated.
  const auto ub = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t before = static_cast<std::size_t>(ub - xs.begin());
  if (before > 0 && ys[before - 1] <= y) return false;

  // Steps dominated by (x, y) — step_x >= x and step_y >= y — form a
  // contiguous run starting at lower_bound(x).
  const auto lb = std::lower_bound(xs.begin(), xs.end(), x);
  const std::size_t at = static_cast<std::size_t>(lb - xs.begin());
  std::size_t end = at;
  while (end < xs.size() && ys[end] >= y) ++end;
  xs.erase(xs.begin() + static_cast<std::ptrdiff_t>(at),
           xs.begin() + static_cast<std::ptrdiff_t>(end));
  ys.erase(ys.begin() + static_cast<std::ptrdiff_t>(at),
           ys.begin() + static_cast<std::ptrdiff_t>(end));
  xs.insert(xs.begin() + static_cast<std::ptrdiff_t>(at), x);
  ys.insert(ys.begin() + static_cast<std::ptrdiff_t>(at), y);
  return true;
}

}  // namespace

double hypervolume3_flat(const double* flat, std::size_t n, std::size_t stride,
                         const double* ref, Hypervolume3Scratch& scratch) {
  if (stride < 3) throw std::invalid_argument("hypervolume3_flat: stride < 3");
  std::vector<std::uint32_t>& order = scratch.order;
  order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = flat + i * stride;
    if (row[0] < ref[0] && row[1] < ref[1] && row[2] < ref[2]) {
      order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (order.empty()) return 0.0;
  std::sort(order.begin(), order.end(),
            [flat, stride](std::uint32_t a, std::uint32_t b) {
              const double za = flat[a * stride + 2];
              const double zb = flat[b * stride + 2];
              if (za != zb) return za < zb;
              return a < b;  // deterministic tie-break
            });

  // Sweep ascending z, maintaining the (o0, o1) dominance staircase of the
  // points seen so far. Between consecutive z values the dominated area is
  // constant, so each distinct level contributes area * dz.
  std::vector<double>& xs = scratch.stair_x;
  std::vector<double>& ys = scratch.stair_y;
  xs.clear();
  ys.clear();
  // The area is read only when z advances, so it is recomputed there —
  // once per distinct level, and only if the staircase changed. Archives
  // share few z values (the delay bounds come from a small MAC grid).
  double volume = 0.0;
  double area = 0.0;
  bool stale = false;
  double z_prev = flat[order.front() * stride + 2];
  for (const std::uint32_t idx : order) {
    const double* row = flat + idx * stride;
    const double z = row[2];
    if (z > z_prev) {
      if (stale) area = staircase_area(xs, ys, ref[0], ref[1]);
      stale = false;
      volume += area * (z - z_prev);
      z_prev = z;
    }
    stale |= staircase_insert(xs, ys, row[0], row[1]);
  }
  if (stale) area = staircase_area(xs, ys, ref[0], ref[1]);
  volume += area * (ref[2] - z_prev);
  return volume;
}

double hypervolume(const std::vector<Objectives>& front,
                   const Objectives& ref) {
  if (front.empty()) return 0.0;
  const std::size_t m = ref.size();
  for (const Objectives& p : front) {
    if (p.size() != m) throw std::invalid_argument("hypervolume: dim mismatch");
  }
  if (m == 2) return hypervolume_2d(front, ref);
  if (m != 3) {
    throw std::invalid_argument("hypervolume: only 2 or 3 objectives");
  }
  std::vector<double> flat;
  flat.reserve(front.size() * 3);
  for (const Objectives& p : front) {
    flat.insert(flat.end(), p.begin(), p.end());
  }
  Hypervolume3Scratch scratch;
  return hypervolume3_flat(flat.data(), front.size(), 3, ref.data(), scratch);
}

double hypervolume(const ParetoArchive& archive,
                   const Objectives& reference_point) {
  if (archive.empty()) return 0.0;
  if (reference_point.size() != 3 || archive.arity() != 3) {
    throw std::invalid_argument(
        "hypervolume(archive): requires 3-objective archive and reference");
  }
  Hypervolume3Scratch scratch;
  return hypervolume3_flat(archive.objectives_flat().data(), archive.size(), 3,
                           reference_point.data(), scratch);
}

}  // namespace wsnex::dse
