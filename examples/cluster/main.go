// Cluster: the distributed campaign fabric in one process — a coordinator
// shards a small matrix into leases, three loopback workers pull and
// execute them over the full HTTP+JSON wire path (no sockets), and the
// folded results land in a queryable store, bit-identical to what a local
// engine run at the same seed would produce. Swap the loopback client for
// dist.NewClient("host:8340") and this is a real multi-machine cluster
// (`serfi serve` / `serfi worker -join` are the production wrapping).
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

func main() {
	// Ctrl-C cancels the coordinator; completed campaigns are already in
	// the store and a rerun over the same store would resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The same jobs a local engine would run: one scenario under the
	// register and memory fault domains, engine seed convention.
	eng := campaign.New(campaign.Models(fault.Reg, fault.Mem))
	jobs := eng.JobsFor([]npb.Scenario{
		{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
	}, 2018)

	st := campaign.NewMemStore()
	// The shared progress consumer both CLIs use.
	events, consumed := campaign.NewCollector(os.Stdout, len(jobs)).Start()
	coord, err := dist.NewCoordinator(jobs, 24,
		dist.ShardSize(4), // 6 leases per campaign: plenty to spread around
		dist.WithStore(st),
		dist.WithEvents(events),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Three workers join through loopback clients: every lease, progress
	// beat and completion crosses the real versioned JSON protocol.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := dist.NewWorker(
			dist.NewLoopbackClient(coord.Handler()),
			dist.Name(fmt.Sprintf("worker-%d", i)),
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				log.Println(err)
			}
		}()
	}

	if _, err := coord.Wait(ctx); err != nil {
		wg.Wait()
		log.Fatal(err) // context.Canceled here if Ctrl-C interrupted the run
	}
	wg.Wait()
	consumed()

	status := coord.Status()
	fmt.Printf("\n%d campaigns over %d shards, %d injections classified by %d workers\n",
		status.CampaignsDone, status.Shards, status.Injected, len(status.Workers))
	for _, ws := range status.Workers {
		fmt.Printf("  %-10s %3d shards %4d runs\n", ws.Name, ws.Shards, ws.Runs)
	}

	// The store is the same queryable database a local run fills.
	for _, r := range st.Query(campaign.Query{Domains: []fault.Model{fault.Mem}}) {
		fmt.Printf("\nmem-domain campaign %s: %s masking=%.1f%%\n",
			r.Key(), r.Counts, 100*r.Counts.Masking())
	}
}
