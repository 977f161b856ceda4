// Package report renders a measurement study as a markdown report:
// a summary header with the study's scale and headline loop counts,
// then every selected table and figure with its output lines and key
// metrics. It renders a study that is already built, so the report
// shares one dataset with whatever else the caller derives from it.
// cmd/campaign -report writes it to disk; it is the machine-generated
// counterpart of the repository's hand-written EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/experiments"
)

// Write renders the report on st to w, with the experiments named by
// ids (nil: all, in presentation order; unknown IDs are skipped).
func Write(w io.Writer, st *campaign.Study, ids []string) error {
	if _, err := fmt.Fprint(w, "# 5G ON-OFF loop study — generated report\n\n"); err != nil {
		return err
	}
	if err := writeSummary(w, st); err != nil {
		return err
	}
	ctx := experiments.NewContextWithStudy(st)
	for _, g := range experiments.Select(ids) {
		res := g.Run(ctx)
		if _, err := fmt.Fprintf(w, "## %s — %s\n\n```\n", res.ID, res.Title); err != nil {
			return err
		}
		for _, line := range res.Lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, "```\n\n"); err != nil {
			return err
		}
		if len(res.Values) > 0 {
			if _, err := fmt.Fprint(w, "Key metrics:\n\n"); err != nil {
				return err
			}
			keys := make([]string, 0, len(res.Values))
			for k := range res.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if _, err := fmt.Fprintf(w, "- `%s` = %.4g\n", k, res.Values[k]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSummary prints the study-scale header.
func writeSummary(w io.Writer, st *campaign.Study) error {
	var runs, loops int
	forms := map[core.Form]int{}
	for _, rec := range st.Records("") {
		runs++
		if rec.HasLoop() {
			loops++
		}
		forms[rec.Form()]++
	}
	minutes := time.Duration(runs) * st.Opts.Duration / time.Minute
	_, err := fmt.Fprintf(w, `Seed %d · %d stationary runs of %s across %d areas (%d simulated minutes).
Loops detected in %d runs (%.1f%%): %d persistent, %d semi-persistent.

`,
		st.Opts.Seed, runs, st.Opts.Duration, len(st.Areas), minutes,
		loops, 100*float64(loops)/float64(runs),
		forms[core.FormPersistent], forms[core.FormSemiPersistent])
	return err
}
