//! Centroid (geometric median) approximation for SPM (§3.2).
//!
//! SPM anchors its search at a point `q` minimising
//! `dist(q, Q) = Σ w_i |q q_i|`. The minimiser (the *geometric median*, or
//! Fermat–Weber point) has no closed form for `n > 2`; the paper evaluates
//! it numerically by gradient descent, and SPM anchors with that solver.
//! Weiszfeld's fixed-point iteration stays beside it as the cross-check the
//! tests hold it to. **Correctness of SPM never depends on the quality of
//! the approximation** — Lemma 1 holds for an arbitrary anchor point — only
//! its efficiency does, so an approximate solution "suffices for the
//! purposes of SPM" (§3.2).

use gnn_geom::Point;

/// Iteration cap of both solvers.
const MAX_ITERS: usize = 200;

/// Both solvers stop when one iteration improves `dist(q, Q)` by less than
/// this fraction of its current value.
const TOLERANCE: f64 = 1e-9;

/// The objective `Σ w_i |q q_i|`.
fn objective(q: Point, points: &[Point], weights: Option<&[f64]>) -> f64 {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| weight(weights, i) * q.dist(*p))
        .sum()
}

#[inline]
fn weight(weights: Option<&[f64]>, i: usize) -> f64 {
    weights.map_or(1.0, |w| w[i])
}

/// Arithmetic mean — the gradient-descent starting point the paper suggests
/// (`x = (1/n) Σ x_i`).
fn arithmetic_mean(points: &[Point], weights: Option<&[f64]>) -> Point {
    assert!(!points.is_empty(), "centroid of an empty group");
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sw = 0.0;
    for (i, p) in points.iter().enumerate() {
        let w = weight(weights, i);
        sx += w * p.x;
        sy += w * p.y;
        sw += w;
    }
    Point::new(sx / sw, sy / sw)
}

/// Gradient descent on `dist(q, Q)` (the paper's method, §3.2): start at the
/// arithmetic mean and step against the gradient with a backtracking step
/// size until converged.
pub fn gradient_descent_centroid(points: &[Point], weights: Option<&[f64]>) -> Point {
    assert!(!points.is_empty(), "centroid of an empty group");
    let mut q = arithmetic_mean(points, weights);
    let mut obj = objective(q, points, weights);
    // Initial step: a fraction of the group's spread.
    let spread = points
        .iter()
        .map(|p| q.dist(*p))
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut eta = spread * 0.5;
    for _ in 0..MAX_ITERS {
        // ∇ dist(q,Q) = Σ w_i (q - q_i) / |q - q_i|.
        let mut gx = 0.0;
        let mut gy = 0.0;
        for (i, p) in points.iter().enumerate() {
            let d = q.dist(*p);
            if d > 1e-300 {
                let w = weight(weights, i) / d;
                gx += w * (q.x - p.x);
                gy += w * (q.y - p.y);
            }
        }
        let glen = (gx * gx + gy * gy).sqrt();
        if glen < 1e-12 {
            break; // at (or numerically at) the minimum
        }
        // Backtracking: shrink the step until the objective improves.
        let mut stepped = false;
        while eta > spread * 1e-15 {
            let cand = Point::new(q.x - eta * gx / glen, q.y - eta * gy / glen);
            let cand_obj = objective(cand, points, weights);
            if cand_obj < obj {
                let improvement = obj - cand_obj;
                q = cand;
                obj = cand_obj;
                stepped = true;
                if improvement < TOLERANCE * obj.max(f64::MIN_POSITIVE) {
                    return q;
                }
                break;
            }
            eta *= 0.5;
        }
        if !stepped {
            break;
        }
    }
    q
}

/// Weiszfeld's fixed-point iteration: `q ← Σ (w_i q_i / d_i) / Σ (w_i / d_i)`.
/// Converges quickly except when an iterate lands on a data point, which is
/// handled by a small perturbation.
pub fn weiszfeld_centroid(points: &[Point], weights: Option<&[f64]>) -> Point {
    assert!(!points.is_empty(), "centroid of an empty group");
    let mut q = arithmetic_mean(points, weights);
    let mut obj = objective(q, points, weights);
    for _ in 0..MAX_ITERS {
        let mut num_x = 0.0;
        let mut num_y = 0.0;
        let mut den = 0.0;
        let mut coincident: Option<Point> = None;
        for (i, p) in points.iter().enumerate() {
            let d = q.dist(*p);
            if d < 1e-300 {
                coincident = Some(*p);
                continue;
            }
            let w = weight(weights, i) / d;
            num_x += w * p.x;
            num_y += w * p.y;
            den += w;
        }
        let next = if den > 0.0 {
            Point::new(num_x / den, num_y / den)
        } else {
            // q coincides with all remaining mass: done.
            return coincident.unwrap_or(q);
        };
        let next_obj = objective(next, points, weights);
        if next_obj >= obj - TOLERANCE * obj.max(f64::MIN_POSITIVE) {
            return if next_obj < obj { next } else { q };
        }
        q = next;
        obj = next_obj;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_group() {
        let p = vec![Point::new(3.0, -2.0)];
        assert_eq!(gradient_descent_centroid(&p, None), p[0]);
        assert_eq!(weiszfeld_centroid(&p, None), p[0]);
    }

    #[test]
    fn two_points_median_is_anywhere_on_segment() {
        // For two points any point on the segment minimises the sum; both
        // solvers should land on the segment with objective = |q1 q2|.
        let pts = vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
        for q in [
            gradient_descent_centroid(&pts, None),
            weiszfeld_centroid(&pts, None),
        ] {
            assert!((objective(q, &pts, None) - 4.0).abs() < 1e-6, "{q}");
        }
    }

    #[test]
    fn equilateral_triangle_median_is_center() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 3f64.sqrt() / 2.0),
        ];
        let expect = Point::new(0.5, 1.0 / (2.0 * 3f64.sqrt()));
        for q in [
            gradient_descent_centroid(&pts, None),
            weiszfeld_centroid(&pts, None),
        ] {
            assert!(q.dist(expect) < 1e-4, "{q} vs {expect}");
        }
    }

    #[test]
    fn solvers_agree_on_random_groups() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..30 {
            let n = rng.gen_range(2..40);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0))
                .collect();
            let gd = gradient_descent_centroid(&pts, None);
            let wz = weiszfeld_centroid(&pts, None);
            let o_gd = objective(gd, &pts, None);
            let o_wz = objective(wz, &pts, None);
            // Both must be close to the same minimum value.
            let scale = o_gd.max(o_wz).max(1e-12);
            assert!(
                (o_gd - o_wz).abs() / scale < 1e-3,
                "case {case}: gd={o_gd} wz={o_wz}"
            );
        }
    }

    #[test]
    fn centroid_beats_or_matches_the_mean() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let pts: Vec<Point> = (0..15)
                .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            let mean = arithmetic_mean(&pts, None);
            let gd = gradient_descent_centroid(&pts, None);
            assert!(objective(gd, &pts, None) <= objective(mean, &pts, None) + 1e-12);
        }
    }

    #[test]
    fn weighted_median_pulls_towards_heavy_point() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let w = vec![10.0, 1.0];
        let q = weiszfeld_centroid(&pts, Some(&w));
        // With a 10x weight at the origin, the median is (numerically) at
        // the origin.
        assert!(q.dist(Point::new(0.0, 0.0)) < 1e-3, "{q}");
        let gd = gradient_descent_centroid(&pts, Some(&w));
        assert!(gd.dist(Point::new(0.0, 0.0)) < 0.5, "{gd}");
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![Point::new(1.0, 1.0); 7];
        let q = weiszfeld_centroid(&pts, None);
        assert_eq!(q, Point::new(1.0, 1.0));
        let g = gradient_descent_centroid(&pts, None);
        assert_eq!(g, Point::new(1.0, 1.0));
    }

    #[test]
    fn collinear_points() {
        // Median of odd collinear points is the middle one.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ];
        for q in [
            gradient_descent_centroid(&pts, None),
            weiszfeld_centroid(&pts, None),
        ] {
            assert!(
                (objective(q, &pts, None) - 5.0).abs() < 1e-5,
                "{q}: {}",
                objective(q, &pts, None)
            );
        }
    }
}
