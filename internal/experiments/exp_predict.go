package experiments

import (
	"math"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/viz"
)

// Fig20 regenerates the fine-grained spatial study around the showcase
// S1E3 location: the per-grid-point loop probability and the RSRP maps
// of the two co-channel 387410 cells.
func Fig20(c *Context) *Result {
	pts, _, cl := c.Dense()
	r := &Result{ID: "fig20", Title: "Loop probability around the showcase location"}
	side := 2*denseSteps + 1
	r.addf("grid: %dx%d, spacing %dm, center %v (archetype %v)",
		side, side, denseSpacingM, cl.Loc, cl.Arch)

	// (b) probability map, as numbers and as the Fig. 20 heat map.
	r.addf("(b) S1E3 loop probability map:")
	probs := make([]float64, 0, len(pts))
	for row := 0; row < side; row++ {
		line := "  "
		for col := 0; col < side; col++ {
			p := pts[row*side+col]
			line += pct(p.ProbS1E3) + " "
			probs = append(probs, p.ProbS1E3)
		}
		r.addf("%s", line)
	}
	for _, line := range viz.Heatmap(probs, side, side) {
		r.addf("  %s", line)
	}
	// (c)/(d) RSRP maps of the two 387410 cells; (e) gap map.
	r.addf("(c/d) 387410 pair RSRP at center: %.1f / %.1f dBm",
		pts[len(pts)/2].PairRSRP[0], pts[len(pts)/2].PairRSRP[1])
	var maxProb, edgeProb float64
	for i, p := range pts {
		if p.ProbS1E3 > maxProb {
			maxProb = p.ProbS1E3
		}
		row, col := i/side, i%side
		if row == 0 || col == 0 || row == side-1 || col == side-1 {
			edgeProb += p.ProbS1E3
		}
	}
	edgeProb /= float64(4*side - 4)
	r.addf("(e) max probability %.2f; mean edge probability %.2f (fades outward)",
		maxProb, edgeProb)
	r.set("max_prob", maxProb)
	r.set("edge_mean_prob", edgeProb)
	centerProb := pts[len(pts)/2].ProbS1E3
	r.set("center_prob", centerProb)
	return r
}

// Fig21 regenerates the two impact factors: (a) loop probability vs the
// SCell RSRP gap (negative rank correlation) and (b) target-combination
// usage vs the PCell gap (positive, logistic).
func Fig21(c *Context) *Result {
	pts, _, _ := c.Dense()
	r := &Result{ID: "fig21", Title: "RSRP-gap impact factors"}

	var gaps, probs []float64
	for _, p := range pts {
		gaps = append(gaps, math.Abs(p.Combo.SCellGapDB.Float()))
		probs = append(probs, p.ProbS1E3)
	}
	rho := stats.Spearman(gaps, probs)
	r.addf("(a) Spearman(SCell gap, loop probability) = %.2f (paper: -0.65)", rho)
	// Probability where the gap is below/above 6 dB.
	var small, large []float64
	for i, g := range gaps {
		if g < 6 {
			small = append(small, probs[i])
		} else {
			large = append(large, probs[i])
		}
	}
	if len(small) > 0 && len(large) > 0 {
		r.addf("(a) mean probability: gap<6dB %.2f vs gap≥6dB %.2f",
			stats.Mean(small), stats.Mean(large))
		r.set("prob_small_gap", stats.Mean(small))
		r.set("prob_large_gap", stats.Mean(large))
	}
	r.set("spearman_scell", rho)

	// (b) measured usage of the target combination vs the PCell gap
	// (Fig. 21b's logistic-like curve). The dense grid sits well inside
	// the target PCell group's dominance region, so the probe walks a
	// transect toward the alternate anchor's tower, where the groups
	// actually cross over.
	m := core.Fit(campaign.TrainingSamples(pts, true), core.FeatureSCellGap)
	pgaps, usages := usageTransect(c)
	rhoU := stats.Spearman(pgaps, usages)
	r.addf("(b) Spearman(PCell gap, measured usage) = %.2f (paper: +0.66); fitted %s", rhoU, m)
	r.addf("(b) model usage at gap -10/0/+10 dB: %.2f / %.2f / %.2f",
		m.Usage(core.Combo{PCellGapDB: -10}),
		m.Usage(core.Combo{PCellGapDB: 0}),
		m.Usage(core.Combo{PCellGapDB: 10}))
	r.set("spearman_pcell_usage", rhoU)
	r.set("usage_at_0", m.Usage(core.Combo{PCellGapDB: 0}))
	r.set("k", m.K)
	r.set("t", m.T)
	r.set("n", m.N)
	return r
}

// usageTransect measures the target-combination usage ratio along a
// line from the showcase location toward the alternate anchor's tower,
// sampling the PCell-gap feature and which group each run anchors on.
func usageTransect(c *Context) (pgaps, usages []float64) {
	_, dep, cl := c.Dense()
	op := policy.OPT()
	// The target group carries the PCI of the main anchor; the
	// alternate tower is where the other 387410 cell sits.
	pair := cl.CellsOnChannel(387410)
	if len(pair) < 2 {
		return nil, nil
	}
	target, alt := pair[0], pair[1]
	anchors := cl.CellsOnChannel(521310)
	if len(anchors) > 0 && anchors[0].PCI == pair[1].PCI {
		target, alt = pair[1], pair[0]
	}
	targetPCI := target.PCI
	dir := alt.Pos

	// The gap is always measured with the *target group* as reference
	// (F17): score(target anchors) − score(best other anchor).
	targetGap := func(p geo.Point) float64 {
		best, other := math.Inf(-1), math.Inf(-1)
		for _, cc := range cl.Cells {
			switch cc.Band() {
			case "n41", "n71":
			default:
				continue
			}
			score := dep.Field.Median(cc, p).RSRPDBm.Add(op.AnchorPriorityDB[cc.Channel]).Float()
			if cc.PCI == targetPCI {
				if score > best {
					best = score
				}
			} else if score > other {
				other = score
			}
		}
		return best - other
	}

	const points, runs = 14, 4
	transect := make([]geo.Point, points)
	for i := range transect {
		transect[i] = geoLerp(cl.Loc, dir, -0.4+1.8*float64(i)/float64(points-1))
	}
	// One job per (point, run): does the run first anchor on the
	// target group?
	used := make([]bool, points*runs)
	campaign.Sweep(c.Opts.Workers, len(used), func(k int) {
		tl := campaign.Simulate(uesim.Config{
			Op: op, Field: dep.Field, Cluster: cl, Loc: transect[k/runs],
			Duration: 90 * time.Second,
			Seed:     c.Opts.Seed*271 + int64(k/runs)*37 + int64(k%runs),
		})
		for _, s := range tl.Steps {
			if s.Set.MCG != nil {
				used[k] = s.Set.MCG.Primary.PCI == targetPCI
				break
			}
		}
	})
	for i, p := range transect {
		pgaps = append(pgaps, targetGap(p))
		usages = append(usages, float64(countTrue(used[i*runs:][:runs]))/runs)
	}
	return pgaps, usages
}

// sortByTruth orders indices by ascending truth value.
func sortByTruth(order []int, truth []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && truth[order[j]] < truth[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// geoLerp interpolates between two points with extrapolation.
func geoLerp(a, b geo.Point, t float64) geo.Point {
	return geo.P(a.X+t*(b.X-a.X), a.Y+t*(b.Y-a.Y))
}

// Fig22 regenerates the prediction evaluation: train on the dense grid,
// predict the loop probability at every sparse OPT location, compare to
// measured ground truth.
func Fig22(c *Context) *Result {
	pts, _, _ := c.Dense()
	st := c.Study()
	op := policy.OPT()
	r := &Result{ID: "fig22", Title: "Loop-probability prediction vs ground truth"}

	// (a) S1E3-only model.
	mE3 := core.Fit(campaign.TrainingSamples(pts, true), core.FeatureSCellGap)
	evalE3 := mE3.Evaluate(campaign.SparseSamples(st, op, true))
	r.addf("(a) S1E3 model %s", mE3)
	r.addf("(a) locations=%d MSE=%.4f within±10%%=%s within±25%%=%s",
		len(evalE3.Pred), evalE3.MSE, pct(evalE3.Within10), pct(evalE3.Within25))
	r.set("s1e3_within25", evalE3.Within25)
	r.set("s1e3_within10", evalE3.Within10)
	r.set("s1e3_mse", evalE3.MSE)

	// (b) overall S1 model: combine the S1E3 predictor with a
	// worst-SCell-RSRP predictor for the S1E1/S1E2 residual, trained on
	// dense grids around S1E1/S1E2 instances, aggregated as independent
	// triggers.
	worstPts := append(append([]campaign.DensePoint(nil), pts...), c.DenseS1()...)
	mWorst := core.Fit(campaign.ResidualSamples(worstPts), core.FeatureWorstRSRP)
	sparseS1 := campaign.SparseSamples(st, op, false)
	var pred, truth []float64
	for _, s := range sparseS1 {
		p := core.CombineIndependent(mE3.Predict(s.Combos), mWorst.Predict(s.Combos))
		pred = append(pred, p)
		truth = append(truth, s.Truth)
	}
	r.addf("(b) S1 overall: within±25%%=%s within±30%%=%s (paper: 67.4%% / 82.6%%)",
		pct(stats.FractionWithin(pred, truth, 0.25)),
		pct(stats.FractionWithin(pred, truth, 0.30)))
	// The Fig. 22 scatter, locations ordered by ground truth.
	order := make([]int, len(truth))
	for i := range order {
		order[i] = i
	}
	sortByTruth(order, truth)
	r.addf("(b) per-location predicted (P) vs ground truth (G):")
	for _, i := range order {
		g := int(truth[i]*24 + 0.5)
		p := int(pred[i]*24 + 0.5)
		row := []byte("                         ")
		if g >= 0 && g < len(row) {
			row[g] = 'G'
		}
		if p >= 0 && p < len(row) {
			if row[p] == 'G' {
				row[p] = '*'
			} else {
				row[p] = 'P'
			}
		}
		r.addf("  |%s| truth %s pred %s", string(row), pct(truth[i]), pct(pred[i]))
	}
	r.set("s1_within25", stats.FractionWithin(pred, truth, 0.25))
	r.set("s1_within30", stats.FractionWithin(pred, truth, 0.30))
	r.set("s1_mse", stats.MSE(pred, truth))
	return r
}
