//! Rounded-down lower bounds on the weighted SUM aggregate
//! `dist(p, Q) = Σ wᵢ·|p qᵢ|`: values built **once per query** that let a
//! search rule a leaf entry or a node out without paying the exact `n`-term
//! `f64` sum, and that never exceed the value they stand for — and one on
//! a network distance, built once per graph.
//!
//! * [`LeafBound`] — the whole group's sum over a lane-padded leaf, in
//!   `f32` at twice the lanes of the exact kernel, rounded down by a
//!   relative and an absolute margin. AVX2 only.
//! * [`CentroidBound`] — one term for a node: `W·mindist(N, c)` at the
//!   group's weighted centroid `c`, rounded down below the computed
//!   heuristic-3 sum `Σ wᵢ·mindist(N, qᵢ)`.
//! * [`BlockBound`] — one term a block for a leaf entry: `Σⱼ Wⱼ·|p cⱼ|`
//!   over the group cut into the cells of a grid, rounded down below the
//!   computed `dist(p, Q)`. Every tier: in `f32` through the leaf bound's
//!   kernel on AVX2 where the group's scale lets `f32` see it, in `f64`
//!   otherwise.
//! * [`PlaneBound`] — one fold for a node: the plane tangent to
//!   `dist(·, Q)` at the centre of its MBR, at the MBR's lowest corner,
//!   rounded down below the computed `dist(p, Q)` of every point `p` in it.
//! * [`LandmarkBound`] — `|d(L, a) − d(L, b)|` over a table of rounded-down
//!   `f32` landmark distances, rounded down below the computed
//!   shortest-path label `d̂(a → b)` of an undirected graph.
//!
//! None ever stands in for a distance: a caller drops an entry, or a node,
//! or parks a node only where the bound already reaches its threshold, and
//! computes the exact value otherwise. The margins are derived below in one
//! form — what is rounded, the bound on each error, the subnormal
//! allowance, the non-finite fallback. `crates/geom/tests/bounds.rs` sweeps
//! the four SUM bounds over one grid of scales, weights and degenerate shapes on every
//! [`SimdLevel`], and names the case each hand mutation of a margin fails;
//! it checks the landmark bound on path graphs, and `gnn-network`'s
//! `landmark_bound_never_exceeds_a_settled_label` on whole networks.
//!
//! # The `f32` leaf bound
//!
//! Per query the weights are narrowed to `f32` **toward zero** (a nearest
//! narrowing may land above the weight, and the bound must not). Per pair
//! the kernel takes `dx`, `dy` in `f64` (the operands the exact kernel
//! squares), narrows them to `f32`, and runs `s = fma(dx, dx, dy·dy)`,
//! `r = √s`, `acc = fma(w, r, acc)`; the result is `acc·(1 − ρ) − α`
//! evaluated in `f64`, with `u = 2⁻²⁴`.
//!
//! * *Rounded:* the two narrowed differences, `dy·dy`, the `fma` of the
//!   square, the root, and each of the `n` accumulating `fma`s; then the
//!   `f64` product and difference of the last line.
//! * *Error bounds, `ρ = (n + 16)·2⁻²³ = 2(n + 16)·u`.* Narrowing inflates a
//!   difference by at most `(1+u)`, so `dx²` by `(1+u)²`; `dy·dy` rounds
//!   once more and the `fma` once again: `s <= d²·(1+u)⁴`. The root halves
//!   that and rounds: `r <= d·(1+u)³`. Each accumulating `fma` rounds the
//!   running sum of non-negative terms once, so term `i` carries at most
//!   `(1+u)ⁿ` more. In all `acc <= T·(1+u)ⁿ⁺⁴` for the real-arithmetic sum
//!   `T` over the same `f64` differences, and the exact `f64` fold is
//!   within `(n+4)·2⁻⁵³` of `T`. `ρ` is twice what that needs; the slack
//!   pays for partial sums that were subnormal (`n·2⁻¹⁵⁰` against a final
//!   `acc >= 2⁻¹²⁶`) and for the `f64` roundings of the last line. The
//!   weights, rounded toward zero, only lower the sum.
//! * *Subnormal allowance, `α = W·2⁻⁷³ + n·2⁻¹⁴⁹`,* `W = Σ wᵢ` over the
//!   narrowed weights. A square that lands in `f32`'s subnormal range is
//!   off by up to `2⁻¹⁴⁹` in all (`dy·dy` and the `fma`, half a subnormal
//!   ulp each), and `√` turns that into up to `2⁻⁷⁴·⁵` on `r` — a 29 %
//!   relative error at the bottom of the range, which no `ρ` covers.
//!   Weighted, carried through the accumulation (`(1+u)ⁿ⁺¹ < 2·√2` for
//!   every `n` that leaves `ρ < 1`) and summed, that is at most `W·2⁻⁷³`.
//!   The second term is the `n` accumulator roundings when the final sum is
//!   itself subnormal. From `ρ >= 1` on the bound is `<= 0` and filters
//!   nothing, soundly.
//! * *Non-finite fallback.* An infinite difference, square, product or sum
//!   stays infinite (or turns NaN against a zero weight) to the end, and
//!   `∞·(1 − ρ) − α` is not finite: a non-finite bound promises nothing
//!   and the caller scores that entry exactly. A weight beyond `f32::MAX`
//!   narrows to `f32::MAX`, one below the smallest subnormal to `0`.
//!
//! The margin is a function of the narrowed weights alone, so it is
//! computed once per query, with four running sums: the total is only a
//! margin, so its association is free.
//!
//! # The centroid key
//!
//! `mindist(N, ·)` is a distance to a convex set, hence convex, so by
//! Jensen `W·mindist(N, c) ≤ Σ wᵢ·mindist(N, qᵢ)` at the weighted centroid
//! `c = Σ wᵢqᵢ / W` (arXiv 1309.1807's convexity argument). The key turns
//! the computed `mindist²(N, ĉ)` into `(Ŵ·(d̂ − e))·(1 − ρ) − t`, clamped to
//! `[0, ∞)`, and that is `<=` the **computed** tight sum — on every SIMD
//! level, in any summation order. Here `u = 2⁻⁵³`, `γₘ = mu/(1 − mu)` and
//! `μ = maxᵢ max(|xᵢ|, |yᵢ|)`, read off the group's MBR.
//!
//! * *Rounded:* the centroid `ĉ = Σ (wᵢ·fl(1/Ŵ))·qᵢ`, the total weight
//!   `Ŵ`, the key's `mindist²` and its root `d̂`, the key's three
//!   operations; and on the other side every term and addition of the
//!   tight sum.
//! * *Error bounds.* `ĉ` lies within `√2·γ₂ₙ₊₂·μ` of `c` (each weight share
//!   carries `Ŵ`'s `γₙ₋₁`, the reciprocal's and the product's rounding;
//!   the dot product `γₙ` relative to `Σ vᵢ|xᵢ| <= μ`), and `mindist(N, ·)`
//!   is 1-Lipschitz. This error is **absolute** — it scales with `μ`, not
//!   with the key — which is why `e = (6n + 16)·u·μ + 2⁻⁵³⁰` and not a
//!   relative term: a group far from the origin keying a child near its
//!   centroid needs all of it. `d̂` is at most `(1 + u)³` above the exact
//!   `mindist(N, ĉ)` (subtraction, squares and add, `sqrt`), `Ŵ` within
//!   `γₙ₋₁` of `W`, and the computed tight sum of `n` non-negative terms of
//!   five roundings each at least `(1 − γₙ₊₄)·Σ` — whatever the order of
//!   the additions, so the AVX2 and scalar folds are both covered. With
//!   the key's own three roundings that is under `(2n + 12)·u` relative;
//!   `ρ = (4n + 32)·u`.
//! * *Subnormal allowance.* A squared term below `f64`'s normal range
//!   carries an absolute error of up to `2⁻¹⁰⁷⁵`, i.e. `2⁻⁵³⁷` after the
//!   square root, on either side; an underflowed weight quotient or
//!   centroid product `2⁻¹⁰⁷⁵`. The `2⁻⁵³⁰` in `e` covers all of them for
//!   any `n < 2⁵⁰⁰`. An underflowed product `wᵢ·√·` in the tight sum, or in
//!   the key itself, loses up to `2⁻¹⁰⁷⁵` however small `W` is: the key
//!   drops `t = (n + 2)·2⁻¹⁰⁷⁴` for those.
//! * *Non-finite fallback.* No key at all where `Ŵ` or `1/Ŵ` is not a
//!   normal number (the reciprocal would lose its relative error). An
//!   overflowed `ĉ`, `Ŵ` or product makes the key `∞` or NaN; it is then
//!   `0`, and a caller's `max` with a cheaper bound keeps that one alone.
//!
//! # The block bound
//!
//! Cut Q into blocks `Qⱼ` with weights `Wⱼ` and weighted centroids `cⱼ`.
//! The norm is convex, so `Wⱼ·|p cⱼ| = |Σ_{i∈j} wᵢ(p − qᵢ)| <= Σ_{i∈j}
//! wᵢ·|p qᵢ|`, and summed over the blocks `Σⱼ Wⱼ·|p cⱼ| <= dist(p, Q)` for
//! any partition — the centroid key's Jensen step, once a block. One block
//! is the centroid key's `W·|p c|`, `n` blocks the exact sum; the blocks
//! here are the non-empty cells of a `g × g` grid over the group's MBR,
//! `g = ⌈n^¼⌉` (16 cells at n = 256, 9 at n = 48), so an entry costs
//! `m <= g²`, about `√n`, terms instead of `n` `f32` lanes. It runs at one
//! of two widths, chosen once per query by [`BlockBound::new`]:
//!
//! * **`f64`**, on every tier: the bound is `K·(1 − ρ) − F`, where `K` is
//!   [`BatchKernels::points_weighted_dist_sum_multi_padded`] over the
//!   blocks' computed centroids `ĉⱼ` and weights `Ŵⱼ` (a sequential fold,
//!   so the same bits on every tier), `u = 2⁻⁵³` and `μ` as for the
//!   centroid key. The margin is derived below.
//! * **`f32`**, on the AVX2 tier where the *scale rule* holds — `μ` and
//!   `Ŵ = Σⱼ Ŵⱼ` both in `[2⁻⁴⁸, 2⁴⁸]`: the bound is `L·(1 − ρ) − F` with
//!   the same `ρ` and `F`, where `L` is the `f32` leaf bound over the
//!   blocks — [`LeafBound`] built from `ĉⱼ` and `Ŵⱼ` as an `m`-member group
//!   (`Ŵⱼ` narrowed toward zero once per query) — with its own `(1 − ρ₃₂,
//!   α)` for `m` terms, `ρ₃₂ = (m + 16)·2⁻²³`. Outside the rule `f32` is
//!   blind — squares that underflow or overflow it, weights it narrows to
//!   `0` or `f32::MAX` — and filters nothing the `f64` fold would, so the
//!   group keeps the `f64` width; below AVX2 there is no `f32` kernel.
//!
//! The `f64` width's margin:
//!
//! * *Rounded:* each block's `Ŵⱼ` and `ĉⱼ`, computed as the centroid
//!   key's but in member order; in `K` each difference, square, sum,
//!   root, product and the fold over `m` blocks; `F`; and the last line's
//!   product and difference. On the other side, every term and addition of
//!   the computed `dist(p, Q)`.
//! * *Error bounds.* `ĉⱼ` lies within `√2·γ₂ₙⱼ₊₂·μ` of `cⱼ`, and the
//!   distance to it is 1-Lipschitz: the centroid key's slack `eⱼ = (6nⱼ +
//!   16)·u·μ + 2⁻⁵³⁰` is more than twice that, so `F = Σⱼ Ŵⱼ·eⱼ` (computed)
//!   covers `Σⱼ Wⱼ·|ĉⱼ cⱼ|`. `K` is at most `(1 + γₙ₊ₘ₊₃)` above `Σⱼ
//!   Wⱼ·|p ĉⱼ|` (a computed root `(1 + u)³` above the exact one, `Ŵⱼ`
//!   within `γₙⱼ₋₁`, the product and the `m`-term fold), and the computed
//!   `dist(p, Q)` at least `(1 − γₙ₊₄)` times the exact one. With the last
//!   line's two roundings that is under `(3n + 9)·u` relative for `m <= n`;
//!   `ρ = (6n + 32)·u`.
//! * *Subnormal allowance.* A square below `f64`'s normal range is off by
//!   up to `2⁻⁵³⁷` after its root, on either side — `W·2⁻⁵³⁶` in all, and
//!   `F` holds `W·2⁻⁵³⁰`. An underflowed product or difference loses up to
//!   `2⁻¹⁰⁷⁵`: `n` terms of the exact sum, `m` of `K`, `m` of `F` and the
//!   last line's two, fewer than `(2n + 4)·2⁻¹⁰⁷⁴`, which `F` adds.
//! * *Non-finite fallback.* No bound at all where a block's `Ŵⱼ` or
//!   `1/Ŵⱼ` is not a normal number. An overflowed `ĉⱼ`, square or sum makes
//!   `K` infinite or NaN, an overflowed `F` makes the bound `−∞` or NaN:
//!   either way the bound is not finite and promises nothing.
//!
//! The `f32` width's margin is a composition, not a new derivation:
//!
//! * *Rounded:* everything the leaf bound rounds, over `m` terms, and then
//!   the `f64` width's last line — its product and difference — on `L`
//!   instead of `K`.
//! * *Error bounds.* Every finite `L` is `<= K` for the `f64` weights `Ŵⱼ`
//!   (the leaf bound's own margin, `ρ₃₂` for `m` terms), and `x ↦ x·(1 −
//!   ρ) − F`, each step rounded, is monotone: `L·(1 − ρ) − F <= K·(1 − ρ) −
//!   F`, which the `f64` margin puts at or below the computed `dist(p, Q)`.
//!   No new constant. On a coincident group inside `f32`'s normal range
//!   the two margins stack: the bound is at least `exact·(1 − 1.5ρ)(1 −
//!   2ρ₃₂) − 1.5F − α` (`crates/geom/tests/bounds.rs`).
//! * *Subnormal allowance.* The leaf bound's `α = Ŵ₃₂·2⁻⁷³ + m·2⁻¹⁴⁹`
//!   (`Ŵ₃₂` the narrowed total) covers squares and sums in `f32`'s
//!   subnormal range, which an entry a hair from a block's centroid meets
//!   inside the scale rule; `F` covers `f64`'s, as at the `f64` width.
//! * *Non-finite fallback.* A non-finite `L` makes the bound non-finite,
//!   which promises nothing. A finite `L` needs every narrowed square
//!   below `2¹²⁸`, so every difference below `2⁶⁴`; with `Ŵ <= 2⁴⁸` that
//!   leaves `K` below `2¹¹⁴`, finite, as the composition needs.
//!
//! # The supporting plane
//!
//! `dist(·, Q)` is a sum of norms, hence convex, so it lies above its
//! tangent plane at any point `c`: `dist(p, Q) >= f(c) + g·(p − c)` with
//! `f(c) = Σ wᵢ·|c qᵢ|` and the subgradient `g = Σ wᵢ·(c − qᵢ)/|c qᵢ|`, where
//! a member on `c` may contribute any vector of length `<= wᵢ`, `0`
//! included. Over a rect whose points lie within `hw` of `c` along `x` and
//! `hh` along `y`, the plane is lowest at a corner: `dist(p, Q) >= f(c) −
//! |gₓ|·hw − |g_y|·hh`. Heuristic 3 lets every member take its own nearest
//! point of the rect; the plane makes them share one, which is far tighter
//! where members pull in opposite directions — near the group's optimum,
//! where a best-first search spends its reads. For one member heuristic 3
//! is already the exact minimum over the rect. The computed bound is `f̃ −
//! |g̃ₓ|·hw − |g̃_y|·hh − ρ·(f̃ + Ŵ′·(hw + hh)) − t`, with `u = 2⁻⁵³`, `ρ =
//! 16(n + 8)·u`, `Ŵ′ = Ŵ + n·2⁻¹⁰²⁰` and `t = Ŵ·2⁻⁵³⁰ + (4n + 8)·2⁻¹⁰⁷⁴`;
//! it is `<=` the **computed** `dist(p, Q)` of every `p` in the rect, on
//! every SIMD level.
//!
//! * *Rounded:* the centre `c̃ = (fl((lo.x + hi.x)·½), …)` — any point
//!   serves, so it needs no bound — and the reaches `hw = next_up(max(hi.x
//!   − c̃ₓ, c̃ₓ − lo.x))`, `hh` likewise: an exact difference is below the
//!   float after its rounding to nearest, so every `p` in the rect is
//!   within `hw`, `hh` of `c̃` exactly. In one fold over the members, in index
//!   order: the differences `dx`, `dy`, the squares and their sum `s`, the
//!   root `r`, the product `wᵢ·r` and its addition to `f̃`, the reciprocal
//!   `v = 1/r`, the products `wᵢ·(dx·v)`, `wᵢ·(dy·v)` and their additions to
//!   `g̃`. A member with `s < 2⁻¹⁰²²` (on `c̃`, or so near that its square
//!   left the normal range) is skipped: its term `wᵢ·|p qᵢ| >= 0` leaves
//!   both the sum and the plane, which only lowers the bound. Then `Ŵ`, a
//!   fold of the weights, and the last line's four products and six sums
//!   and differences. On the other side every term and addition of the
//!   computed `dist(p, Q)`.
//! * *Error bounds.* Let `f` and `g` be the exact sum and subgradient at
//!   `c̃` over the members kept. A kept term of `f̃` is within `4u` of
//!   `wᵢ·|c̃ qᵢ|` (a difference, the square sum's `γ₂`, the root, the
//!   product), so `f >= f̃·(1 − (n + 4)·u)` with the fold. A gradient term
//!   is a unit vector's component times `wᵢ`, and its computed value is
//!   within `7u·wᵢ` of it (one more rounding each for the reciprocal and the
//!   two products), so `|gₓ − g̃ₓ| <= (n + 6)·u·W`, `g_y` alike. On the
//!   other side each term of `dist(p, Q)` is `wᵢ`-Lipschitz and `|p c̃| <=
//!   hw + hh`, so `dist(p, Q) <= f̃·(1 + (n + 4)·u) + W·(hw + hh)` (up to
//!   the skipped members, below), and the computed `dist(p, Q)` is at least
//!   `(1 − γₙ₊₄)` times the exact one in any order of its additions. With
//!   the last line's roundings, each at most `u` of `f̃ + Ŵ·(hw + hh)` and
//!   the margin, the computed sum can fall below the exact plane by at most
//!   `(2n + 16)·u·(f̃ + Ŵ·(hw + hh))`; `ρ` is eight times that.
//! * *Subnormal allowance.* A kept member's square sum is normal, so a
//!   difference, square or quotient that underflows alone costs under
//!   `u·s` or `u·wᵢ`. An underflowed product loses up to `2⁻¹⁰⁷⁵`: `n` of
//!   them in `f̃`, and `2n` in `g̃`, whose error the reaches multiply —
//!   which `Ŵ′`'s `n·2⁻¹⁰²⁰` covers through `ρ` once `hw + hh >= 1`, and
//!   `t` below that. On the
//!   exact side a square below `f64`'s normal range is off by up to
//!   `2⁻⁵³⁷` after its root, `W·2⁻⁵³⁶` in all, and `n` products may
//!   underflow; a skipped member lies under `2⁻⁵¹¹` from `c̃`, so it adds at
//!   most `W·2⁻⁵¹¹·γₙ₊₄` to the exact side's error. `t` covers all of them,
//!   and the last line's products.
//! * *Non-finite fallback.* An overflowed centre, reach, square, sum or
//!   margin leaves the last line infinite or NaN (`∞ − ∞`, `0·∞`); a NaN
//!   square is kept, not skipped, so it reaches the last line too.
//!   [`PlaneBound::lower`] returns `−∞` for anything not finite, which
//!   rules nothing out.
//!
//! # The landmark bound
//!
//! On an undirected graph with non-negative edge weights the triangle
//! inequality gives `d(a, b) >= |d(L, a) − d(L, b)|` for any vertex `L`.
//! A graph of `V` vertices keeps, per landmark `L` and vertex `x`, the
//! entry `ℓₓ`: the largest `f32` `<=` the label `d̂(L, x)` a Dijkstra
//! expansion from `L` settles `x` at, or `+∞` where `L` does not reach
//! `x` ([`LandmarkBound::entry`]). For a pair with entries `lo <= hi`,
//! both finite, the term is `(hi − lo − g) − c·(lo + hi + g)`, where
//! `g = next_up(lo) − lo` (exact in `f64`), `c = 4·(V + 2)·ε = 8·(V + 2)·u`
//! and `u = 2⁻⁵³`; the bound is the largest term, or `0`. It is `<=` the
//! **computed** label `d̂(a → b)` of an expansion from `a` — what a search
//! compares with a threshold — not only the true distance.
//!
//! * *Rounded:* every label, a left fold of rounded additions of
//!   non-negative weights; the narrowing to `f32`; the term's five
//!   additions and subtractions and its product.
//! * *Error bounds, `γ = m·u/(1 − m·u)` for `m = V − 1`.* A label is the
//!   fold along its predecessor chain, a simple path of at most `m` edges,
//!   and each addition of non-negatives rounds by at most `u` relative:
//!   `d̂ >= (1 − γ)·len >= (1 − γ)·d`. Rounding is monotone and never
//!   decreases a sum, so the expansion settles each vertex at the least
//!   fold over all paths, which is at most the fold along a shortest one:
//!   `d̂ <= (1 + γ)·d`. With `x` the vertex of `lo` and `y` that of `hi`,
//!   `d(L, y) >= hi·(1 − γ)` and `d(L, x) <= (lo + g)·(1 + 2γ)`, so
//!   `d(a, b) >= d(L, y) − d(L, x) >= (hi − lo − g) − 2γ·S` with
//!   `S = lo + hi + g` (both orders of the pair, by symmetry). The label
//!   from `a` is `>= (1 − γ)·d(a, b)`, which costs at most `γ·S` more
//!   wherever that bound is positive; the term's own six roundings are
//!   each at most `u·S`. In all `(3γ + 6u)·S`: under `(3V + 4)·u·S` for
//!   `V < 2²⁵`, which `c·S = 8·(V + 2)·u·S` holds twice over, and under
//!   `6V·u·S < c·S` for any `V` with `(V − 1)·u <= 1/2`. From `c >= 1` on,
//!   every term is `<= 0`: the bound rules nothing out, soundly.
//! * *Subnormal allowance: none.* An addition whose result is subnormal is
//!   exact, so the fold's relative bound holds all the way down; every
//!   non-zero `f32` is a normal `f64`, so `g`, `S` and `c·S` do not
//!   underflow.
//! * *Non-finite fallback.* An infinite entry says the landmark reaches
//!   one of the pair, or neither, and is skipped. A label above `f32::MAX`
//!   narrows to `f32::MAX`, whose `g` is `∞`: as `lo` its term is `−∞`,
//!   as `hi` it is below the label it stands for. No term is NaN.

// The only `unsafe` here is the one call into the AVX2 body of the `f32`
// leaf bound, sound because a `LeafBound` exists only at `Avx2Fma` (see its
// SAFETY comment) — the block bound's `f32` width reaches it through one.
#![allow(unsafe_code)]

use crate::batch::BatchKernels;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::simd::{pad_len, SimdLevel};
use crate::{Point, Rect};

/// The largest `f32` `<=` a value `>= 0` (`+∞` for `+∞`).
#[inline]
fn narrow_down(v: f64) -> f32 {
    match v as f32 {
        // Positive and above a value `>= 0`, so not zero: the next float
        // down is one bit pattern below (and `f32::MAX` below an overflowed
        // `+∞`).
        f if f64::from(f) > v => f32::from_bits(f.to_bits() - 1),
        f => f,
    }
}

/// The rounded-down `f32` lower bound on a weighted SUM group's distance to
/// every entry of a lane-padded leaf (margin: module docs). It exists only
/// where its AVX2 kernel does: [`LeafBound::new`] is `None` below
/// [`SimdLevel::Avx2Fma`], so holding one is the proof that it may run.
#[derive(Debug, Clone, Copy)]
pub struct LeafBound<'a> {
    qx: &'a [f64],
    qy: &'a [f64],
    /// The weights narrowed toward zero.
    weights: &'a [f32],
    /// `1 − ρ`.
    factor: f64,
    /// `α`.
    floor: f64,
}

impl<'a> LeafBound<'a> {
    /// The bound for the group `(qx, qy)` with `f64` weights `w`, pinned to
    /// `kernels`' level; `buf` is refilled with the narrowed weights (so a
    /// reused buffer allocates nothing once warm). `None`, with `buf`
    /// untouched, below AVX2. The buffer is the caller's scratch, not a copy
    /// kept beside the group: a resident `f32` copy cost a 6 000-group pool
    /// 9 % of its peak RSS.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(
        kernels: BatchKernels,
        qx: &'a [f64],
        qy: &'a [f64],
        w: &[f64],
        buf: &'a mut Vec<f32>,
    ) -> Option<Self> {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        if kernels.level() != SimdLevel::Avx2Fma {
            return None;
        }
        buf.clear();
        buf.extend(w.iter().map(|&w| narrow_down(w)));
        // Four running sums, weight `i` into lane `i % 4`: the margin's bits
        // depend on this association, so it stays fixed.
        let mut sums = [0.0f64; 4];
        for (i, &v) in buf.iter().enumerate() {
            sums[i % 4] += f64::from(v);
        }
        let total = (sums[0] + sums[1]) + (sums[2] + sums[3]);
        let n = n as f64;
        Some(LeafBound {
            qx,
            qy,
            weights: buf,
            // Powers of two, exact: `f64` holds 2⁻¹⁴⁹ as a normal number.
            factor: 1.0 - (n + 16.0) * 2f64.powi(-23),
            floor: total * 2f64.powi(-73) + n * 2f64.powi(-149),
        })
    }

    /// The weights narrowed toward zero: each `f64::from(weights()[i])` is
    /// `<=` the `i`-th `f64` weight.
    pub fn weights(&self) -> &[f32] {
        self.weights
    }

    /// Lower bounds on the exact weighted sums of `m` logical points whose
    /// coordinate slices hold at least [`pad_len`]`(m)` readable lanes:
    /// `out` is cleared and refilled with `m` values, and every finite
    /// `out[j]` is `<=` [`BatchKernels::points_weighted_dist_sum_multi_padded`]'s
    /// `j`-th value for the `f64` weights the bound was built from. A
    /// non-finite `out[j]` promises nothing.
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)`.
    pub fn lower_padded(&self, xs: &[f64], ys: &[f64], m: usize, out: &mut Vec<f64>) {
        assert!(xs.len() >= pad_len(m) && ys.len() >= pad_len(m));
        let LeafBound {
            qx,
            qy,
            weights: w,
            factor,
            floor,
        } = *self;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `LeafBound` is built only from kernels pinned at
        // `Avx2Fma`, which `BatchKernels` holds only after runtime detection
        // confirmed avx2+fma; `new` asserted that `qx`, `qy` and the weights
        // agree in length, and the assert above proves the point slices hold
        // the `pad_len(m)` lanes the kernel reads.
        unsafe {
            simd::x86::points_weighted_dist_sum_lower_avx2(
                xs, ys, m, qx, qy, w, factor, floor, out,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a LeafBound exists only at SimdLevel::Avx2Fma");
    }
}

/// `μ`: the largest coordinate magnitude of a group, read off its MBR's
/// corners, which hold every coordinate's extremes.
fn coordinate_bound(mbr: &Rect) -> f64 {
    [mbr.lo.x, mbr.lo.y, mbr.hi.x, mbr.hi.y]
        .into_iter()
        .fold(0.0f64, |a, c| a.max(c.abs()))
}

/// `e`: how far the computed weighted centroid of `n` members with
/// coordinates up to `mu` may sit from the exact one, plus the subnormal
/// allowance (module docs).
fn centroid_slack(n: f64, mu: f64) -> f64 {
    (6.0 * n + 16.0) * f64::EPSILON / 2.0 * mu + 2f64.powi(-530)
}

/// A SUM group's weighted centroid with the margin that makes
/// `W·mindist(N, ĉ)` a sound lower bound on the computed tight bound
/// `Σ wᵢ·mindist(N, qᵢ)` (derivation: module docs).
#[derive(Debug, Clone, Copy)]
pub struct CentroidBound {
    /// The computed weighted centroid `ĉ`.
    centre: Point,
    /// `Ŵ`.
    total_weight: f64,
    /// `e`: how far `ĉ` may sit from the exact centroid, plus the
    /// subnormal allowance.
    slack: f64,
    /// `1 − ρ`.
    factor: f64,
    /// `t`, the allowance for underflowed products.
    floor: f64,
}

impl CentroidBound {
    /// The bound for the group `(qx, qy)` with weights `w`, total weight
    /// `total_weight` and MBR `mbr`; `None` where `Ŵ` or `1/Ŵ` is not a
    /// normal number.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(qx: &[f64], qy: &[f64], w: &[f64], total_weight: f64, mbr: &Rect) -> Option<Self> {
        let len = qx.len();
        assert!(qy.len() == len && w.len() == len);
        let inv = 1.0 / total_weight;
        if !(total_weight.is_normal() && inv.is_normal()) {
            return None; // `1/Ŵ` would not hold its relative error
        }
        // Four lanes of running sums, so the loop vectorises: the error
        // bound holds for any summation order. A short tail is padded with
        // weight-0, coordinate-0 members, which add nothing.
        let (mut sx, mut sy) = ([0.0f64; 4], [0.0f64; 4]);
        let mut add = |x: &[f64], y: &[f64], wt: &[f64]| {
            for l in 0..4 {
                let v = wt[l] * inv;
                sx[l] += v * x[l];
                sy[l] += v * y[l];
            }
        };
        let body = len - len % 4;
        for i in (0..body).step_by(4) {
            add(&qx[i..i + 4], &qy[i..i + 4], &w[i..i + 4]);
        }
        let pad = |s: &[f64]| {
            let mut lanes = [0.0f64; 4];
            lanes[..s.len() - body].copy_from_slice(&s[body..]);
            lanes
        };
        add(&pad(qx), &pad(qy), &pad(w));
        let n = len as f64;
        Some(CentroidBound {
            centre: Point::new(
                (sx[0] + sx[1]) + (sx[2] + sx[3]),
                (sy[0] + sy[1]) + (sy[2] + sy[3]),
            ),
            total_weight,
            slack: centroid_slack(n, coordinate_bound(mbr)),
            factor: 1.0 - (4.0 * n + 32.0) * f64::EPSILON / 2.0,
            // (n + 2)·2⁻¹⁰⁷⁴, exactly: the smallest subnormal's multiple.
            floor: (n + 2.0) * f64::from_bits(1),
        })
    }

    /// The computed weighted centroid `ĉ`, the point a caller measures
    /// `mindist²(N, ĉ)` from.
    #[inline]
    pub fn centre(&self) -> Point {
        self.centre
    }

    /// The bound for a node given `mindist²(N, ĉ)`; `0` where the margin
    /// swallows it or the arithmetic left the finite range.
    #[inline]
    pub fn key_from_sq(&self, mindist_sq: f64) -> f64 {
        let key = self.total_weight * (mindist_sq.sqrt() - self.slack) * self.factor - self.floor;
        if key > 0.0 && key < f64::INFINITY {
            key
        } else {
            0.0
        }
    }
}

/// `⌈n^¼⌉`: the side of the grid a group of `n` members is cut on.
fn grid_side(n: usize) -> usize {
    let mut side = 1usize;
    while side.pow(4) < n {
        side += 1;
    }
    side
}

/// The scale rule: whether a group's `μ` or `Ŵ` lies where the block
/// bound's `f32` terms see it, `[2⁻⁴⁸, 2⁴⁸]` (module docs).
fn f32_sees(v: f64) -> bool {
    (2f64.powi(-48)..=2f64.powi(48)).contains(&v)
}

/// The rounded-down block bound on a weighted SUM group's distance to every
/// entry of a lane-padded leaf: `Σⱼ Ŵⱼ·|p ĉⱼ|` over the non-empty cells of a
/// `⌈n^¼⌉ × ⌈n^¼⌉` grid over the group's MBR, `m` terms an entry (margin:
/// module docs). Built on every tier; the terms run in `f32` on the AVX2
/// tier where the group's scale lets `f32` see them, in `f64` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct BlockBound<'a> {
    kernels: BatchKernels,
    /// One lane a block: the computed centroids' `x` and `y` and the
    /// blocks' weights `Ŵⱼ`.
    cx: &'a [f64],
    cy: &'a [f64],
    cw: &'a [f64],
    /// The `f32` path: the leaf bound over the blocks, where it runs.
    lanes: Option<LeafBound<'a>>,
    /// `1 − ρ`.
    factor: f64,
    /// `F`.
    floor: f64,
}

impl<'a> BlockBound<'a> {
    /// The bound for the group `(qx, qy)` with weights `w` and MBR `mbr`,
    /// pinned to `kernels`; `buf` is refilled with the blocks and `narrow`
    /// with their weights narrowed toward zero where the `f32` path runs
    /// (so reused buffers allocate nothing once warm; `narrow` is untouched
    /// where it does not). `None` where a block's `Ŵⱼ` or `1/Ŵⱼ` is not a
    /// normal number.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(
        kernels: BatchKernels,
        qx: &[f64],
        qy: &[f64],
        w: &[f64],
        mbr: &Rect,
        buf: &'a mut Vec<f64>,
        narrow: &'a mut Vec<f32>,
    ) -> Option<Self> {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        let side = grid_side(n);
        let cells = side * side;
        // One multiply a member and axis. A flat MBR makes `0·∞`, NaN, which
        // casts to cell 0, as does `-0`; any cut of Q is sound.
        let scale = |lo: f64, hi: f64| side as f64 / (hi - lo);
        let (kx, ky) = (scale(mbr.lo.x, mbr.hi.x), scale(mbr.lo.y, mbr.hi.y));
        let at = |v: f64, lo: f64, k: f64| (((v - lo) * k) as usize).min(side - 1);
        let cell = |i: usize| at(qy[i], mbr.lo.y, ky) * side + at(qx[i], mbr.lo.x, kx);
        // Five planes of one lane a cell: members, `Ŵⱼ`, `1/Ŵⱼ`, and the
        // centroid's `x` and `y`, each summed in member order.
        buf.clear();
        buf.resize(5 * cells, 0.0);
        let planes: &'a mut [f64] = buf;
        let (count, rest) = planes.split_at_mut(cells);
        let (total, rest) = rest.split_at_mut(cells);
        let (inv, rest) = rest.split_at_mut(cells);
        let (sx, sy) = rest.split_at_mut(cells);
        for (i, &wi) in w.iter().enumerate() {
            let c = cell(i);
            count[c] += 1.0;
            total[c] += wi;
        }
        for c in 0..cells {
            if count[c] > 0.0 {
                inv[c] = 1.0 / total[c];
                if !(total[c].is_normal() && inv[c].is_normal()) {
                    return None; // `1/Ŵⱼ` would not hold its relative error
                }
            }
        }
        for (i, &wi) in w.iter().enumerate() {
            let c = cell(i);
            let v = wi * inv[c];
            sx[c] += v * qx[i];
            sy[c] += v * qy[i];
        }
        // Compact the non-empty cells to the front of each plane.
        let mu = coordinate_bound(mbr);
        let (mut blocks, mut slack, mut weight) = (0, 0.0, 0.0);
        for c in 0..cells {
            if count[c] > 0.0 {
                slack += total[c] * centroid_slack(count[c], mu);
                weight += total[c];
                (total[blocks], sx[blocks], sy[blocks]) = (total[c], sx[c], sy[c]);
                blocks += 1;
            }
        }
        let (cx, cy, cw) = (&sx[..blocks], &sy[..blocks], &total[..blocks]);
        let lanes = if f32_sees(mu) && f32_sees(weight) {
            LeafBound::new(kernels, cx, cy, cw, narrow)
        } else {
            None
        };
        let n = n as f64;
        Some(BlockBound {
            kernels,
            cx,
            cy,
            cw,
            lanes,
            factor: 1.0 - (6.0 * n + 32.0) * f64::EPSILON / 2.0,
            // (2n + 4)·2⁻¹⁰⁷⁴, exactly: the smallest subnormal's multiple.
            floor: slack + (2.0 * n + 4.0) * f64::from_bits(1),
        })
    }

    /// The number of blocks `m`: the terms an entry costs.
    pub fn blocks(&self) -> usize {
        self.cw.len()
    }

    /// The blocks' weights narrowed toward zero where the terms run in
    /// `f32`; `None` where they run in `f64`.
    pub fn narrowed_weights(&self) -> Option<&[f32]> {
        self.lanes.as_ref().map(LeafBound::weights)
    }

    /// Lower bounds on the exact weighted sums of `m` logical points whose
    /// coordinate slices hold at least [`pad_len`]`(m)` readable lanes:
    /// `out` is cleared and refilled with `m` values, and every finite
    /// `out[j]` is `<=` [`BatchKernels::points_weighted_dist_sum_multi_padded`]'s
    /// `j`-th value for the weights the bound was built from. A non-finite
    /// `out[j]` promises nothing.
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)`.
    pub fn lower_padded(&self, xs: &[f64], ys: &[f64], m: usize, out: &mut Vec<f64>) {
        match &self.lanes {
            // At most the `f64` fold below, where finite: the margin's
            // composition (module docs).
            Some(lanes) => lanes.lower_padded(xs, ys, m, out),
            None => self
                .kernels
                .points_weighted_dist_sum_multi_padded(xs, ys, m, self.cx, self.cy, self.cw, out),
        }
        for v in out.iter_mut() {
            *v = *v * self.factor - self.floor;
        }
    }
}

/// The rounded-down supporting-plane lower bound on a weighted SUM group's
/// distance to every point of a rect: the plane tangent to `dist(·, Q)` at
/// the rect's centre, at its lowest corner (margin: module docs). One
/// scalar fold a rect, a root and a reciprocal a member.
#[derive(Debug, Clone, Copy)]
pub struct PlaneBound<'a> {
    qx: &'a [f64],
    qy: &'a [f64],
    w: &'a [f64],
    /// `ρ`.
    rho: f64,
    /// `Ŵ′`, the weight the reaches' margin scales with.
    weight: f64,
    /// `t`.
    floor: f64,
}

impl<'a> PlaneBound<'a> {
    /// The bound for the group `(qx, qy)` with weights `w`.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(qx: &'a [f64], qy: &'a [f64], w: &'a [f64]) -> Self {
        let len = qx.len();
        assert!(qy.len() == len && w.len() == len);
        let total: f64 = w.iter().sum();
        let n = len as f64;
        PlaneBound {
            qx,
            qy,
            w,
            rho: 8.0 * (n + 8.0) * f64::EPSILON,
            weight: total + n * 2f64.powi(-1020),
            // (4n + 8)·2⁻¹⁰⁷⁴, exactly: the smallest subnormal's multiple.
            floor: total * 2f64.powi(-530) + (4.0 * n + 8.0) * f64::from_bits(1),
        }
    }

    /// A lower bound on the computed `dist(p, Q)` of every point `p` in
    /// `rect`; `−∞` where the arithmetic left the finite range.
    pub fn lower(&self, rect: &Rect) -> f64 {
        let (lo, hi) = (rect.lo, rect.hi);
        let (cx, cy) = (0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y));
        let hw = (hi.x - cx).max(cx - lo.x).next_up();
        let hh = (hi.y - cy).max(cy - lo.y).next_up();
        let (mut f, mut gx, mut gy) = (0.0f64, 0.0f64, 0.0f64);
        for ((&qx, &qy), &w) in self.qx.iter().zip(self.qy).zip(self.w) {
            let (dx, dy) = (cx - qx, cy - qy);
            let s = dx * dx + dy * dy;
            // On the centre, or too near for a normal square: no term. A
            // NaN is kept, to reach the last line.
            if s < f64::MIN_POSITIVE {
                continue;
            }
            let r = s.sqrt();
            f += w * r;
            let v = 1.0 / r;
            gx += w * (dx * v);
            gy += w * (dy * v);
        }
        let margin = self.rho * (f + self.weight * (hw + hh)) + self.floor;
        let bound = f - gx.abs() * hw - gy.abs() * hh - margin;
        if bound.is_finite() {
            bound
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// The rounded-down landmark lower bound on a shortest-path distance in an
/// undirected graph of `V` vertices, read off two rows of a landmark table
/// (margin: module docs).
#[derive(Debug, Clone, Copy)]
pub struct LandmarkBound {
    /// `c = 4·(V + 2)·ε`.
    margin: f64,
}

impl LandmarkBound {
    /// The bound for a graph of `vertices` vertices.
    pub fn new(vertices: usize) -> Self {
        LandmarkBound {
            margin: 4.0 * (vertices as f64 + 2.0) * f64::EPSILON,
        }
    }

    /// A table entry: the largest `f32` `<=` a settled label (`>= 0`), or
    /// `+∞` for an unreached vertex's `+∞`.
    #[inline]
    pub fn entry(label: f64) -> f32 {
        narrow_down(label)
    }

    /// A lower bound on the computed label `d̂(a → b)`, given the table rows
    /// of `a` and `b` (one [`LandmarkBound::entry`] a landmark, in the same
    /// landmark order): `0` where no landmark tells them apart.
    #[inline]
    pub fn lower(&self, a: &[f32], b: &[f32]) -> f64 {
        let mut bound = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            if hi == f32::INFINITY {
                continue; // this landmark misses one of the pair, or both
            }
            let gap = f64::from(lo.next_up()) - f64::from(lo);
            let (lo, hi) = (f64::from(lo), f64::from(hi));
            let term = (hi - lo - gap) - self.margin * (lo + hi + gap);
            if term > bound {
                bound = term;
            }
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The leaf kernel's SAFETY contract, pinned at its safe boundary: the
    // length checks run before any lane is read.
    #[test]
    #[should_panic]
    fn leaf_bound_refuses_query_slices_of_unequal_length() {
        let (q, w) = ([0.0; 3], [1.0; 2]);
        // Checked before the level: it panics on every host.
        LeafBound::new(BatchKernels::auto(), &q, &q, &w, &mut Vec::new());
    }

    #[test]
    fn leaf_bound_refuses_point_slices_short_of_their_padding() {
        let (xs, q, w) = ([0.0; 9], [0.0; 2], [1.0; 2]);
        let Some(kernels) = BatchKernels::for_level(SimdLevel::Avx2Fma) else {
            return; // no kernel on this host, nothing to refuse
        };
        let mut buf = Vec::new();
        let bound = LeafBound::new(kernels, &q, &q, &w, &mut buf).expect("AVX2");
        // 9 logical points need 16 readable lanes.
        let short = catch_unwind(AssertUnwindSafe(|| {
            bound.lower_padded(&xs, &xs, 9, &mut Vec::new())
        }));
        assert!(short.is_err(), "read past a 9-lane slice");
    }
}
