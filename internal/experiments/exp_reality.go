package experiments

import (
	"fmt"
	"sort"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/viz"
)

// opOrder is the presentation order of the operators.
var opOrder = []string{"OPT", "OPA", "OPV"}

// Fig6 regenerates the per-operator loop-ratio bars: no-loop (I),
// persistent loop (II-P) and semi-persistent loop (II-SP) shares.
func Fig6(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig6", Title: "Run form ratio per operator"}
	r.addf("%-5s %10s %10s %10s", "Op", "I(no loop)", "II-P", "II-SP")
	for _, op := range opOrder {
		forms := st.FormCounts(op)
		total := forms[core.FormNoLoop] + forms[core.FormPersistent] + forms[core.FormSemiPersistent]
		if total == 0 {
			continue
		}
		noLoop := stats.Ratio(forms[core.FormNoLoop], total)
		p := stats.Ratio(forms[core.FormPersistent], total)
		sp := stats.Ratio(forms[core.FormSemiPersistent], total)
		r.addf("%-5s %10s %10s %10s", op, pct(noLoop), pct(p), pct(sp))
		r.set("loop_ratio_"+op, p+sp)
		r.set("semi_ratio_"+op, sp)
	}
	r.addf("loop share (II-P + II-SP), with 95%% bootstrap CI over runs:")
	for _, op := range opOrder {
		v := r.Values["loop_ratio_"+op]
		var indicators []float64
		for _, rec := range st.Records(op) {
			x := 0.0
			if rec.HasLoop() {
				x = 1
			}
			indicators = append(indicators, x)
		}
		lo, hi := stats.BootstrapCI(indicators, 0.95, 300, 11)
		r.addf("  %s  CI [%s, %s]", viz.Bar(op, v, 1, 30, pct(v)), pct(lo), pct(hi))
		r.set("loop_ci_lo_"+op, lo)
		r.set("loop_ci_hi_"+op, hi)
	}
	return r
}

// Fig8 regenerates the per-location loop likelihood in the showcase
// area A1, sorted descending like the paper's bar chart.
func Fig8(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig8", Title: "Loop likelihood at A1 locations"}
	a1 := st.AreaByID("A1")
	if a1 == nil {
		return r
	}
	lik := append([]float64(nil), a1.LoopLikelihood()...)
	sort.Sort(sort.Reverse(sort.Float64Slice(lik)))
	always, over50, withLoops := 0, 0, 0
	for i, v := range lik {
		r.addf("%s", viz.Bar(fmt.Sprintf("P%d", i+1), v, 1, 24, pct(v)))
		if v >= 0.999 {
			always++
		}
		if v > 0.5 {
			over50++
		}
		if v > 0 {
			withLoops++
		}
	}
	r.addf("locations with loops: %d/%d; >50%% likelihood: %d; 100%%: %d",
		withLoops, len(lik), over50, always)
	r.set("locations", float64(len(lik)))
	r.set("with_loops", float64(withLoops))
	r.set("over50", float64(over50))
	r.set("always", float64(always))
	return r
}

// Fig9 regenerates the per-area loop ratios (a) and the breakdown of
// locations by loop-likelihood quartile (b).
func Fig9(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig9", Title: "Loop ratios in all areas"}
	r.addf("%-4s %-4s %8s %8s | %6s %6s %6s %6s %6s", "Area", "Op",
		"II-P", "II-SP", ">75%", ">50%", ">25%", ">0%", "=0%")
	for _, a := range st.Areas {
		var p, sp, total int
		for _, rec := range a.Records {
			total++
			switch rec.Form() {
			case core.FormPersistent:
				p++
			case core.FormSemiPersistent:
				sp++
			case core.FormNoLoop:
				// Loop-free runs count toward the total only.
			}
		}
		lik := a.LoopLikelihood()
		var q [5]int // >75, >50, >25, >0, =0
		for _, v := range lik {
			switch {
			case v > 0.75:
				q[0]++
			case v > 0.50:
				q[1]++
			case v > 0.25:
				q[2]++
			case v > 0:
				q[3]++
			default:
				q[4]++
			}
		}
		nl := float64(len(lik))
		r.addf("%-4s %-4s %8s %8s | %6s %6s %6s %6s %6s",
			a.Spec.ID, a.Spec.Operator,
			pct(stats.Ratio(p, total)), pct(stats.Ratio(sp, total)),
			pct(float64(q[0])/nl), pct(float64(q[1])/nl), pct(float64(q[2])/nl),
			pct(float64(q[3])/nl), pct(float64(q[4])/nl))
		r.set("loop_ratio_"+a.Spec.ID, stats.Ratio(p+sp, total))
		r.set("affected_"+a.Spec.ID, 1-float64(q[4])/nl)
	}
	return r
}

// cycleStats collects per-cycle metrics for an operator.
func cycleStats(st *campaign.Study, op string) (cycle, off, ratio []float64) {
	for _, loop := range campaign.LoopInstances(st.Records(op)) {
		for _, cm := range loop.Cycles() {
			cycle = append(cycle, cm.Cycle().Seconds())
			off = append(off, cm.Off.Seconds())
			ratio = append(ratio, cm.OffRatio())
		}
	}
	return
}

// Fig10 regenerates the cycle-time / OFF-time / OFF-ratio violins as
// distribution summaries per operator.
func Fig10(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig10", Title: "ON-OFF cycle impact per operator"}
	r.addf("%-5s | %22s | %22s | %16s", "Op", "cycle time s (p25/med/p75)",
		"OFF time s (p25/med/p75)", "OFF ratio (med)")
	summaries := map[string]stats.Summary{}
	for _, op := range opOrder {
		cyc, off, ratio := cycleStats(st, op)
		if len(cyc) == 0 {
			continue
		}
		cs, os := stats.Summarize(cyc), stats.Summarize(off)
		summaries[op] = cs
		r.addf("%-5s | %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f | %8s",
			op, cs.P25, cs.Median, cs.P75, os.P25, os.Median, os.P75,
			pct(stats.Median(ratio)))
		r.set("cycle_median_"+op, cs.Median)
		r.set("off_median_"+op, os.Median)
		r.set("off_ratio_median_"+op, stats.Median(ratio))
	}
	// Violin strips of the cycle time on a shared axis.
	r.addf("cycle time distribution (0–90 s, -=p10..p90 ==p25..p75 M=median):")
	for _, op := range opOrder {
		s, ok := summaries[op]
		if !ok {
			continue
		}
		r.addf("  %s", viz.Violin(op, s.P10, s.P25, s.Median, s.P75, s.P90, 0, 90, 46))
	}
	return r
}

// speedStudy runs a throughput-enabled subset of each operator's study
// records to measure per-cycle ON/OFF speeds (Fig. 11 needs speeds,
// which the main study skips for memory).
func speedStudy(c *Context, op string) []throughput.CycleSpeed {
	var looping []*campaign.Record
	for _, rec := range c.Study().Records(op) {
		if rec.HasLoop() {
			looping = append(looping, rec)
		}
	}
	pol := opByName(op)
	// The k-th looping record (counting from 1) draws its speed series
	// from seed Seed+k.
	perRec := make([][]throughput.CycleSpeed, len(looping))
	campaign.Sweep(c.Opts.Workers, len(looping), func(j int) {
		rec := looping[j]
		samples := throughput.Generate(rec.Timeline, pol, c.Opts.Seed+int64(j)+1)
		for _, loop := range rec.Analysis.Loops {
			var cycles []throughput.Cycle
			for _, cm := range loop.Cycles() {
				cycles = append(cycles, throughput.Cycle{Start: cm.Start, Total: cm.Cycle()})
			}
			perRec[j] = append(perRec[j], throughput.CycleSpeeds(samples, rec.Timeline, cycles)...)
		}
	})
	var out []throughput.CycleSpeed
	for _, cs := range perRec {
		out = append(out, cs...)
	}
	return out
}

// Fig11 regenerates the CDFs of download speed during 5G ON, 5G OFF and
// the per-cycle speed loss.
func Fig11(c *Context) *Result {
	r := &Result{ID: "fig11", Title: "Download speed during ON/OFF periods"}
	r.addf("%-5s %14s %14s %14s", "Op", "ON median", "OFF median", "loss median")
	for _, op := range opOrder {
		cs := speedStudy(c, op)
		if len(cs) == 0 {
			continue
		}
		var on, off, loss []float64
		for _, s := range cs {
			on = append(on, s.OnMedian)
			off = append(off, s.OffMedian)
			loss = append(loss, s.Loss())
		}
		r.addf("%-5s %10.1f Mbps %10.1f Mbps %10.1f Mbps",
			op, stats.Median(on), stats.Median(off), stats.Median(loss))
		// CDF of the per-cycle ON speed, rendered like Fig. 11a.
		r.addf("  %s ON-speed CDF:", op)
		for _, line := range viz.CDF(on, 44, 6, "Mbps") {
			r.addf("  %s", line)
		}
		r.set("on_median_"+op, stats.Median(on))
		r.set("off_median_"+op, stats.Median(off))
		r.set("loss_median_"+op, stats.Median(loss))
	}
	return r
}

// Fig19 regenerates the OFF-time-by-sub-type comparison, including
// OPV's 30-second multiples (N2E2 recovery delays).
func Fig19(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig19", Title: "5G OFF time per loop sub-type"}
	for _, op := range []string{"OPA", "OPV"} {
		bySub := map[core.Subtype][]float64{}
		for _, rec := range st.Records(op) {
			for i, loop := range rec.Analysis.Loops {
				sub := rec.Analysis.Subtypes[i]
				for _, cm := range loop.Cycles() {
					bySub[sub] = append(bySub[sub], cm.Off.Seconds())
				}
			}
		}
		for _, sub := range core.AllSubtypes {
			xs := bySub[sub]
			if len(xs) == 0 {
				continue
			}
			s := stats.Summarize(xs)
			r.addf("%-4s %-5s OFF s: p25=%.1f med=%.1f p75=%.1f p90=%.1f (n=%d)",
				op, sub, s.P25, s.Median, s.P75, s.P90, s.N)
			r.set("off_med_"+op+"_"+sub.String(), s.Median)
		}
		// OPV's N2E2 recovery delay: the share of OFF periods waiting a
		// full 30 s configuration period or more.
		if xs := bySub[core.N2E2]; len(xs) > 0 {
			over30 := 0
			for _, x := range xs {
				if x >= 29.5 {
					over30++
				}
			}
			r.addf("%-4s N2E2 OFF > 30s: %s (paper: OPV 66%%, OPA ~0%%)",
				op, pct(float64(over30)/float64(len(xs))))
			r.set("n2e2_over30_"+op, float64(over30)/float64(len(xs)))
		}
	}
	return r
}

// opByName resolves an operator alias to its policy profile.
func opByName(name string) *policy.Operator { return policy.ByName(name) }
