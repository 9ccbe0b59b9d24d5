// The `serfi sens` subcommand: the sensitivity observability surface over
// a recorded campaign database. It loads the v4 per-fault rows a
// -record-runs campaign persisted, rebuilds each scenario's join context
// from nothing but the stored scenario ID and golden summary (image,
// symbols, residency windows), and prints the per-register / per-function /
// per-page / per-cache-structure vulnerability report with Wilson
// confidence intervals — optionally writing the self-contained HTML
// heatmap and the serfi_sens_* metrics exposition.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/sens"
)

func cmdSens(args []string) error {
	fs := flag.NewFlagSet("sens", flag.ExitOnError)
	db := fs.String("db", "results.jsonl", "campaign database with recorded per-fault rows")
	only := fs.String("s", "", "substring filter on scenario ids")
	top := fs.Int("top", 12, "rows per attribution table (0 = all)")
	htmlOut := fs.String("html", "", "write the self-contained vulnerability heatmap here")
	metricsOut := fs.String("metrics", "", "also dump the Prometheus exposition here")
	fs.Parse(args)

	// A report reads; it must not leave an empty database behind a typo.
	if _, err := os.Stat(*db); err != nil {
		return err
	}
	st, err := campaign.OpenFileStore(*db)
	if err != nil {
		return err
	}
	defer st.Close()
	// Query answers in key order, which sorts the domain axis within each
	// scenario: deterministic input order for the analysis.
	byScenario := make(map[npb.Scenario][]*campaign.Result)
	for _, r := range st.Query(campaign.Query{
		HasRuns: true,
		Match:   func(sc npb.Scenario, _ fault.Model) bool { return strings.Contains(sc.ID(), *only) },
	}) {
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	if len(byScenario) == 0 {
		return fmt.Errorf("no recorded campaigns in %s (run the campaign with -record-runs)", *db)
	}

	scs := make([]npb.Scenario, 0, len(byScenario))
	for sc := range byScenario {
		scs = append(scs, sc)
	}
	sort.Slice(scs, func(i, j int) bool { return scs[i].ID() < scs[j].ID() })

	m := sens.NewMetrics(obs.Default)
	var reports []*sens.Report
	for i, sc := range scs {
		group := byScenario[sc]
		t0 := time.Now()
		ctx, err := sens.NewContext(sc, group[0].Golden)
		if err != nil {
			return err
		}
		rep, err := sens.Analyze(ctx, group)
		if err != nil {
			return err
		}
		m.Observe(rep, time.Since(t0).Seconds())
		reports = append(reports, rep)
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(rep.Text(*top))
	}

	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(sens.HTML(reports)), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote vulnerability heatmap to %s\n", *htmlOut)
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := obs.Default.WriteText(mf); err != nil {
			return err
		}
		fmt.Printf("\nwrote metrics exposition to %s\n", *metricsOut)
	}
	return nil
}
