// Package experiments regenerates every table and figure of the
// paper's evaluation. Each generator returns a Result with formatted
// lines (what cmd/campaign prints) and a map of named metric values
// (what the integration tests assert and EXPERIMENTS.md records).
//
// Generators share one lazily-built Context so the expensive sparse
// study and the dense grid are executed once per process.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/policy"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Lines  []string
	Values map[string]float64
}

// addf appends a formatted line.
func (r *Result) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// set records a named metric.
func (r *Result) set(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// Context shares the expensive datasets across generators.
type Context struct {
	Opts campaign.Options

	mu    sync.Mutex
	study *campaign.Study // guarded by: mu — lazily materialized by Study

	denseOnce sync.Once
	densePts  []campaign.DensePoint
	denseDep  *deploy.Deployment
	denseCl   *deploy.Cluster

	denseS1Once sync.Once
	denseS1Pts  []campaign.DensePoint
}

// NewContext builds a context; the zero Options give the full-scale
// study.
func NewContext(opts campaign.Options) *Context {
	return &Context{Opts: opts}
}

// NewContextWithStudy builds a context over an already-materialized
// study — e.g. one resumed from a checkpoint journal — so generators
// render from it instead of running their own. The study's own options
// seed the context's derived datasets.
func NewContextWithStudy(st *campaign.Study) *Context {
	return &Context{Opts: st.Opts, study: st}
}

// Study lazily runs the sparse measurement study.
//
// locks: mu
func (c *Context) Study() *campaign.Study {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.study == nil {
		c.study = campaign.Run(c.Opts)
	}
	return c.study
}

// denseSpacingM and denseSteps define the Fig. 20 grid (7×7 at 45 m ≈
// the paper's "over 30 locations near P16").
const (
	denseSpacingM = 45
	denseSteps    = 3
)

// Dense lazily runs the fine-grained spatial study around the showcase
// S1E3 cluster in A1.
func (c *Context) Dense() ([]campaign.DensePoint, *deploy.Deployment, *deploy.Cluster) {
	c.denseOnce.Do(func() {
		op := policy.OPT()
		spec := deploy.AreasFor("OPT")[0]
		c.denseDep = deploy.Build(op, spec, c.Opts.Seed+1)
		c.denseCl = campaign.FindShowcase(c.denseDep)
		if c.denseCl == nil {
			// Unusual seed without an S1E3 cluster in A1: fall back to
			// the first cluster so generators still run.
			c.denseCl = c.denseDep.Clusters[0]
		}
		runs := 5
		if c.Opts.RunScale > 0 && c.Opts.RunScale < 1 {
			runs = 3
		}
		opts := c.Opts
		c.densePts = campaign.DenseStudy(op, c.denseDep, c.denseCl,
			denseSpacingM, denseSteps, runs, opts)
	})
	return c.densePts, c.denseDep, c.denseCl
}

// DenseS1 runs small dense grids around one S1E1 and one S1E2 cluster
// (the paper performs the fine-grained study "for every loop instance"
// it extends the model to). The points complement the S1E3 showcase
// grid when training the worst-SCell-RSRP predictor.
func (c *Context) DenseS1() []campaign.DensePoint {
	c.denseS1Once.Do(func() {
		op := policy.OPT()
		want := map[deploy.Archetype]bool{deploy.ArchS1E1: true, deploy.ArchS1E2: true}
		for _, spec := range deploy.AreasFor("OPT") {
			if len(want) == 0 {
				break
			}
			dep := deploy.Build(op, spec, c.Opts.Seed+1)
			for _, cl := range dep.Clusters {
				if !want[cl.Arch] {
					continue
				}
				delete(want, cl.Arch)
				pts := campaign.DenseStudy(op, dep, cl, denseSpacingM, 2, 3, c.Opts)
				c.denseS1Pts = append(c.denseS1Pts, pts...)
			}
		}
	})
	return c.denseS1Pts
}

// Generator is one registered experiment.
type Generator struct {
	ID    string
	Title string
	Run   func(*Context) *Result
}

// All lists every experiment in the paper's presentation order.
func All() []Generator {
	return []Generator{
		{"fig1b", "Fig. 1b — download speed timeline of one ON-OFF loop", Fig1b},
		{"table2", "Table 2 — 5G cells in the showcase example", Table2},
		{"fig3", "Fig. 3 — RRC procedures over one ON-OFF cycle", Fig3},
		{"table3", "Table 3 — dataset statistics", Table3},
		{"fig6", "Fig. 6 — loop ratio per operator", Fig6},
		{"fig8", "Fig. 8 — loop likelihood at A1 locations", Fig8},
		{"fig9", "Fig. 9 — loop ratios in all areas", Fig9},
		{"fig10", "Fig. 10 — cycle/OFF-time distributions", Fig10},
		{"fig11", "Fig. 11 — download speed during ON/OFF", Fig11},
		{"table4", "Table 4 — test phone models", Table4},
		{"fig12", "Fig. 12 — loops across phone models (NSA)", Fig12},
		{"fig13", "Fig. 13 — loop types and triggers", Fig13},
		{"fig16", "Fig. 16 — loop breakdown per area", Fig16},
		{"table5", "Table 5 — channel usage and modification failures (OPT)", Table5},
		{"fig17", "Fig. 17 — RSRP of cells on channel 387410", Fig17},
		{"fig18", "Fig. 18 — channel usage breakdown (OPA/OPV)", Fig18},
		{"fig19", "Fig. 19 — 5G OFF time per loop sub-type", Fig19},
		{"fig20", "Fig. 20 — loop probability around the showcase", Fig20},
		{"fig21", "Fig. 21 — RSRP-gap impact factors", Fig21},
		{"fig22", "Fig. 22 — loop-probability prediction accuracy", Fig22},
		{"f12", "F12 — A2/B1 threshold regression vs prior work", F12Regression},
		{"walk", "§7 — walking through a loop site", WalkExperiment},
		{"apps", "§7 — loops across application workloads", AppsExperiment},
		{"ablation-sticky", "Ablation — camping stickiness vs loop persistence", StickinessAblation},
		{"mitigation", "Q3 — per-cause mitigations", MitigationStudy},
		{"robustness", "Q4 — loop detection under capture corruption", Robustness},
	}
}

// ByID returns a generator by its experiment ID.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// Select returns the generators named by ids, in that order (nil: all,
// in presentation order). Unknown IDs are skipped.
func Select(ids []string) []Generator {
	if ids == nil {
		return All()
	}
	var out []Generator
	for _, id := range ids {
		if g, ok := ByID(id); ok {
			out = append(out, g)
		}
	}
	return out
}

// pct formats a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%5.1f%%", 100*v) }

// durS formats a duration in seconds with one decimal.
func durS(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

// countTrue counts the set flags of a sweep's per-run results.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// sortedKeys returns map keys in sorted order for stable output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
