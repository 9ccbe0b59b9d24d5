package main

import (
	"context"
	"flag"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestCheckpointCountAtEveryEntryPoint pins the checkpoint count each entry
// point builds for one scenario. The count has fi's meaning everywhere — n
// checkpoints, n <= 0 none — and its default, fi.DefaultCheckpoints, is set
// where the owner is built: campaign.New and the -snapshots flag here,
// dist.NewWorker in internal/dist (TestWorkerCheckpointCount).
func TestCheckpointCountAtEveryEntryPoint(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	const seed = 3
	engine := func(t *testing.T, opts ...campaign.Option) int {
		events := make(chan campaign.Event, 64)
		opts = append(opts, campaign.Faults(1), campaign.WithEvents(events))
		if _, err := campaign.New(opts...).RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: seed}}); err != nil {
			t.Fatal(err)
		}
		close(events)
		for ev := range events {
			if g, ok := ev.(campaign.GoldenDone); ok {
				return g.Checkpoints
			}
		}
		t.Fatal("no GoldenDone event")
		return 0
	}
	cli := func(args ...string) func(*testing.T) int {
		return func(t *testing.T) int {
			fs := flag.NewFlagSet("inject", flag.ContinueOnError)
			hf := addHostFlags(fs, engineHelp)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			return engine(t, hf.options()...)
		}
	}
	opts := func(opts ...campaign.Option) func(*testing.T) int {
		return func(t *testing.T) int { return engine(t, opts...) }
	}
	group := func(n int) func(*testing.T) int {
		return func(t *testing.T) int {
			g, err := campaign.BuildGroup(context.Background(), sc, seed, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := g.Checkpoints()
			return got
		}
	}
	for _, tc := range []struct {
		name  string
		count func(*testing.T) int
		want  int
	}{
		{"engine/no-option", opts(), fi.DefaultCheckpoints},
		{"engine/Snapshots(0)", opts(campaign.Snapshots(0)), 0},
		{"engine/Snapshots(16)", opts(campaign.Snapshots(16)), 16},
		{"BuildGroup/0", group(0), 0},
		{"cli/-snapshots-default", cli(), fi.DefaultCheckpoints},
		{"cli/-snapshots-0", cli("-snapshots", "0"), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.count(t); got != tc.want {
				t.Errorf("%d checkpoints, want %d", got, tc.want)
			}
		})
	}
}
