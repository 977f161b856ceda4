package report

import (
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
)

func TestWriteReport(t *testing.T) {
	st := campaign.Run(campaign.Options{Seed: 3, Duration: 90 * time.Second, RunScale: 0.2})
	var b strings.Builder
	if err := Write(&b, st, []string{"table4", "fig13", "nosuch"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# 5G ON-OFF loop study — generated report",
		"Seed 3 · ",
		"stationary runs of 1m30s",
		"## table4",
		"## fig13",
		"OnePlus 12R",
		"Key metrics:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Index(out, "## table4") > strings.Index(out, "## fig13") {
		t.Error("experiments out of the requested order")
	}
	if strings.Contains(out, "## fig22") || strings.Contains(out, "nosuch") {
		t.Error("filtered report should hold only the known requested experiments")
	}
}

func TestWriteReportDefaultTitle(t *testing.T) {
	st := campaign.Run(campaign.Options{Seed: 3, Duration: 90 * time.Second, RunScale: 0.2})
	var b strings.Builder
	if err := Write(&b, st, []string{"table4"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "# 5G ON-OFF loop study — generated report\n") {
		t.Error("report should open with the study title")
	}
}
