// The `serfi sens` subcommand: the sensitivity observability surface over
// a recorded campaign database. It loads the v4 per-fault rows every
// campaign persists, rebuilds each scenario's campaign.Group from nothing
// but the stored scenario ID and seed (image, symbols, golden run,
// residency windows), refuses rows whose golden summary that group does not
// reproduce, and prints the per-register / per-function /
// per-page / per-cache-structure vulnerability report with Wilson
// confidence intervals — optionally writing the self-contained HTML
// heatmap and the serfi_sens_* metrics exposition.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/sens"
)

func cmdSens(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sens", flag.ContinueOnError)
	db := fs.String("db", "results.jsonl", "campaign database with recorded per-fault rows")
	only := fs.String("s", "", "substring filter on scenario ids")
	top := fs.Int("top", 12, "rows per attribution table (0 = all)")
	htmlOut := fs.String("html", "", "write the self-contained vulnerability heatmap here")
	metricsOut := fs.String("metrics", "", "also dump the Prometheus exposition here")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	recs, err := readDB(*db)
	if err != nil {
		return err
	}
	// Key order sorts the domain axis within each scenario: deterministic
	// input order for the analysis.
	byScenario := make(map[npb.Scenario][]*campaign.Result)
	for _, key := range slices.Sorted(maps.Keys(recs)) {
		if r := recs[key]; len(r.Runs) > 0 && strings.Contains(r.Scenario.ID(), *only) {
			byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
		}
	}
	if len(byScenario) == 0 {
		return fmt.Errorf("no recorded campaigns in %s", *db)
	}

	scs := make([]npb.Scenario, 0, len(byScenario))
	for sc := range byScenario {
		scs = append(scs, sc)
	}
	sort.Slice(scs, func(i, j int) bool { return scs[i].ID() < scs[j].ID() })

	m := sens.NewMetrics(obs.Default)
	var reports []*sens.Report
	for i, sc := range scs {
		rows := byScenario[sc]
		t0 := time.Now()
		grp, err := campaign.BuildGroup(ctx, sc, rows[0].Seed, 0, nil)
		if err != nil {
			return err
		}
		rep, err := sens.Analyze(grp, rows)
		if err != nil {
			return err
		}
		m.Observe(rep, time.Since(t0).Seconds())
		reports = append(reports, rep)
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, rep.Text(*top))
	}

	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(sens.HTML(reports)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote vulnerability heatmap to %s\n", *htmlOut)
	}
	if *metricsOut != "" {
		return writeMetrics(stdout, *metricsOut)
	}
	return nil
}
