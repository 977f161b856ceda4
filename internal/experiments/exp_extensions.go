package experiments

import (
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/radio"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// This file holds the extension experiments beyond the paper's figures:
// the F12 regression against the historical A2-B1 misconfiguration and
// the §7 walking experiment.

// F12Regression demonstrates finding F12: the A2-B1 loop of prior work
// (Zhang et al.) no longer occurs under today's thresholds, but
// reappears verbatim when the historical uncoordinated thresholds are
// restored. The radio environment is identical in both arms; only the
// policy differs.
func F12Regression(c *Context) *Result {
	r := &Result{ID: "f12", Title: "F12 — A2/B1 threshold regression vs prior work"}

	// A hand-built site whose NR coverage sits inside the historical
	// dead band (−118 < RSRP < −110): good 4G, NR around −114 dBm.
	field := radio.NewField(c.Opts.Seed + 99)
	loc := geo.P(0, 0)
	lte := deploy.NewCell(band.RATLTE, 101, 5145, geo.P(-180, 120), 2)
	lte.NoiseDB = 8 // no RSRQ edge anywhere: isolate the A2-B1 mechanism
	ps := deploy.NewCell(band.RATNR, 101, 632736, geo.P(-180, 120), 2)
	psSCell := deploy.NewCell(band.RATNR, 101, 658080, geo.P(-180, 120), 2)
	deploy.Calibrate(field, lte, loc, -95)
	deploy.Calibrate(field, ps, loc, -114)
	deploy.Calibrate(field, psSCell, loc, -119)
	cl := &deploy.Cluster{Loc: loc, Cells: []*cell.Cell{lte, ps, psSCell}}

	runs := 8
	arm := func(op *policy.Operator) int {
		looped := make([]bool, runs)
		campaign.Sweep(c.Opts.Workers, runs, func(i int) {
			looped[i] = core.Analyze(campaign.Simulate(uesim.Config{
				Op: op, Field: field, Cluster: cl,
				Duration: 4 * time.Minute,
				Seed:     c.Opts.Seed*51 + int64(i),
			})).HasLoop()
		})
		return countTrue(looped)
	}
	legacy := arm(policy.OPALegacy())
	current := arm(policy.OPA())
	r.addf("site: 4G PCell at -95 dBm, NR PSCell at -114 dBm (inside the")
	r.addf("historical dead band %-0.0f..%-0.0f dBm)", -118.0, -110.0)
	r.addf("legacy thresholds (2021-era):  loops in %d/%d runs", legacy, runs)
	r.addf("current thresholds (corrected): loops in %d/%d runs", current, runs)
	r.addf("F12: the A2-B1 loop sub-type is reproducible but absent under")
	r.addf("today's configuration — operators corrected the thresholds.")
	r.set("legacy_loops", float64(legacy))
	r.set("current_loops", float64(current))
	r.set("runs", float64(runs))
	return r
}

// WalkExperiment reproduces the §7 walking observation: walking through
// a loop site, the loop is present in close proximity and then gone —
// because the RSRP features change under the walker.
func WalkExperiment(c *Context) *Result {
	_, dep, cl := c.Dense()
	r := &Result{ID: "walk", Title: "§7 — walking through a loop site"}
	op := policy.OPT()

	// Walk in from 300 m out, pause-free through the site and out the
	// other side at 1 m/s (10 minutes), accumulating several seeds the
	// way the paper repeated its walking runs.
	segs := 6
	counts := make([]int, segs)
	total := 0
	walkDur := 10 * time.Minute
	walks := make([]*trace.Timeline, 3)
	campaign.Sweep(c.Opts.Workers, len(walks), func(run int) {
		walks[run] = campaign.Simulate(uesim.Config{
			Op: op, Field: dep.Field, Cluster: cl,
			Loc:          cl.Loc.Add(-300, 0),
			Path:         []geo.Point{cl.Loc.Add(300, 0)},
			WalkSpeedMps: 1.0,
			Duration:     walkDur,
			Seed:         c.Opts.Seed*77 + 3 + int64(run),
		})
	})
	for _, tl := range walks {
		segDur := walkDur / time.Duration(segs)
		for _, s := range tl.Steps {
			if s.Evidence.Kind == trace.CauseNone {
				continue
			}
			seg := int(s.At / segDur)
			if seg >= 0 && seg < segs {
				counts[seg]++
				total++
			}
		}
	}
	for i, n := range counts {
		fromM := -300 + i*100
		r.addf("segment %d (%4dm..%4dm from site): %d 5G releases", i+1, fromM, fromM+100, n)
	}
	mid := counts[2] + counts[3]
	edge := counts[0] + counts[5]
	r.addf("releases near the site: %d, at the walk edges: %d", mid, edge)
	r.addf("§7: the loop exists in close proximity to the site, then is gone.")
	r.set("total_releases", float64(total))
	r.set("mid_releases", float64(mid))
	r.set("edge_releases", float64(edge))
	return r
}
