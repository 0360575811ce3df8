// Command locality is the CLI front end to the combined analytical
// model. Subcommands:
//
//	locality predict   -contexts 2 -d 4.06        # solve one operating point
//	locality gain      -contexts 1 -nodes 1000    # locality gain at a machine size
//	locality limit     -contexts 2                # asymptotic per-hop latency
//	locality breakdown -contexts 2 -nodes 1000    # Equation 18 decomposition
//	locality sweep     -contexts 1 -from 10 -to 1e6 -perdecade 2
//
// Common flags adjust the Alewife-calibrated preset: -grain, -switch,
// -fixed, -msgsize, -dims, -speed (network clock relative to the base
// architecture), -chancont (model node-channel contention), -floor
// (enforce the Equation 4 issue-time floor).
//
// Each machine size costs two model solves of about a microsecond, so
// sweep evaluates its sizes in order on one goroutine (core.GainSweep)
// and takes no worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"locality/internal/core"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: locality <predict|gain|limit|breakdown|sweep> [flags]")
	fmt.Fprintln(os.Stderr, "run 'locality <subcommand> -h' for the flag list")
	os.Exit(2)
}

// modelFlags registers the shared model-configuration flags on fs and
// returns a builder that assembles the Config after parsing.
func modelFlags(fs *flag.FlagSet) func() core.Config {
	contexts := fs.Int("contexts", 1, "hardware contexts p")
	d := fs.Float64("d", 1, "average communication distance in hops")
	grain := fs.Float64("grain", core.AlewifeGrain, "computation grain Tr (P-cycles)")
	switchT := fs.Float64("switch", core.AlewifeSwitchTime, "context switch time Tc (P-cycles)")
	fixed := fs.Float64("fixed", core.AlewifeFixedOverhead, "fixed transaction overhead Tf (P-cycles)")
	msgSize := fs.Float64("msgsize", core.AlewifeMsgSize, "average message size B (flits)")
	dims := fs.Int("dims", core.AlewifeDims, "mesh dimension n")
	speed := fs.Float64("speed", 1, "network speed relative to the base architecture")
	chanCont := fs.Bool("chancont", false, "model node-channel contention")
	floor := fs.Bool("floor", false, "enforce the Equation 4 issue-time floor")
	return func() core.Config {
		cfg := core.Alewife(*contexts, *d)
		cfg.App.Grain = *grain
		cfg.App.SwitchTime = *switchT
		cfg.Txn.FixedOverhead = *fixed
		cfg.Net.MsgSize = *msgSize
		cfg.Net.Dims = *dims
		cfg.Net.NodeChannelContention = *chanCont
		cfg.AssumeUnmasked = !*floor
		return cfg.WithNetworkSpeed(*speed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locality:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	sub, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	build := modelFlags(fs)
	nodes := fs.Float64("nodes", 1000, "machine size N (gain/breakdown/sweep)")
	from := fs.Float64("from", 10, "sweep start size")
	to := fs.Float64("to", 1e6, "sweep end size")
	perDecade := fs.Int("perdecade", 2, "sweep points per decade")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	cfg := build()

	switch sub {
	case "predict":
		sol, err := cfg.Solve()
		if err != nil {
			fatal(err)
		}
		printSolution(cfg, sol)
	case "gain":
		g, err := core.ExpectedGain(cfg, *nodes)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("machine size N          %.0f\n", g.Nodes)
		fmt.Printf("random-mapping d        %.2f hops (Equation 17)\n", g.RandomDistance)
		fmt.Printf("ideal-mapping tt        %.1f P-cycles\n", g.Ideal.IssueTime)
		fmt.Printf("random-mapping tt       %.1f P-cycles\n", g.Random.IssueTime)
		fmt.Printf("expected locality gain  %.2fx\n", g.Gain)
	case "limit":
		fmt.Printf("latency sensitivity s   %.3f\n", cfg.Node().Sensitivity())
		fmt.Printf("hop latency limit Th∞   %.2f N-cycles  (B·s/2n, Equation 16)\n", core.HopLatencyLimit(cfg))
	case "breakdown":
		d := core.RandomMappingDistance(cfg.Net.Dims, *nodes)
		for _, tc := range []struct {
			name string
			dist float64
		}{{"ideal", 1}, {"random", d}} {
			c := cfg.WithDistance(tc.dist)
			sol, err := c.Solve()
			if err != nil {
				fatal(err)
			}
			b := c.DecomposeIssueTime(sol)
			fmt.Printf("%s mapping (d=%.2f): tt = %.1f P-cycles\n", tc.name, tc.dist, sol.IssueTime)
			fmt.Printf("  variable message   %.1f\n", b.VariableMessage)
			fmt.Printf("  fixed message      %.1f\n", b.FixedMessage)
			fmt.Printf("  fixed transaction  %.1f\n", b.FixedTransaction)
			fmt.Printf("  CPU                %.1f\n", b.CPU)
		}
	case "sweep":
		rows, err := core.GainSweep(cfg, core.LogSizes(*from, *to, *perDecade))
		if err != nil {
			fatal(err)
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "N\td(random)\tgain\tTh(random)\tutilization")
		for _, r := range rows {
			fmt.Fprintf(tw, "%.0f\t%.2f\t%.2f\t%.2f\t%.3f\n",
				r.Nodes, r.RandomDistance, r.Gain, r.Random.HopLatency, r.Random.Utilization)
		}
		tw.Flush()
	default:
		usage()
	}
}

func printSolution(cfg core.Config, sol core.Solution) {
	fmt.Printf("latency sensitivity s    %.3f\n", cfg.Node().Sensitivity())
	fmt.Printf("message rate rm          %.5f msgs/N-cycle/node\n", sol.MsgRate)
	fmt.Printf("inter-message time tm    %.1f N-cycles\n", sol.MsgTime)
	fmt.Printf("message latency Tm       %.1f N-cycles\n", sol.MsgLatency)
	fmt.Printf("per-hop latency Th       %.2f N-cycles\n", sol.HopLatency)
	fmt.Printf("channel utilization ρ    %.3f\n", sol.Utilization)
	fmt.Printf("transaction latency Tt   %.1f P-cycles\n", sol.TxnLatency)
	fmt.Printf("issue time tt            %.1f P-cycles\n", sol.IssueTime)
	fmt.Printf("transaction rate rt      %.5f txns/P-cycle/proc\n", sol.TxnRate)
	if sol.Masked {
		fmt.Println("regime                   latency fully masked (issue floor)")
	}
}
