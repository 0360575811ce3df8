// Command figures regenerates every table and figure in the paper's
// evaluation section:
//
//	figures -fig all            # everything (runs the full simulation suite)
//	figures -fig validation     # Figures 3–5: simulator vs model
//	figures -fig 6              # per-hop latency limit curve
//	figures -fig 7              # expected gain vs machine size
//	figures -fig 8              # issue-time decomposition
//	figures -fig table1         # network-speed sensitivity
//	figures -fig uclnucl        # UCL vs NUCL organization comparison (extension)
//	figures -fig tolerance      # prefetch vs multithreading (extension)
//	figures -fig dimensions     # mesh-dimension sweep (extension)
//	figures -fig validation -quick   # reduced windows for a fast look
//	figures -fig all -workers 8 -progress
//
// Output is plain text tables with the same rows/series the paper
// plots. The model-only studies (6, 7, 8, table1, uclnucl, dimensions,
// contention) solve their points in a plain loop, one or two solves of
// about a microsecond per point. The simulated ones (validation,
// tolerance, gainsim) run their machines on -workers goroutines
// through the experiment engine, and -progress streams their per-cell
// lines; results are assembled in grid order, so the output is
// identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"locality/internal/engine"
	"locality/internal/experiments"
	"locality/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: validation (figs 3-5), 6, 7, 8, table1, uclnucl, tolerance, dimensions, contention, gainsim, or all")
	quick := flag.Bool("quick", false, "use shorter simulation windows (validation figures only)")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
	workers := flag.Int("workers", 0, "parallel simulation workers for validation, tolerance and gainsim (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "stream the simulated figures' per-cell progress to stderr")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var prog io.Writer
	if *progress {
		prog = os.Stderr
	}
	exec := engine.Exec{Workers: *workers, Progress: prog}

	writeCSV := func(name string, fn func(w *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("validation", func() error {
		cfg := experiments.DefaultValidationConfig()
		cfg.Exec = exec
		if *quick {
			cfg.Warmup = 2000
			cfg.Window = 6000
		}
		fmt.Println("== Figures 3-5: model validation against the full-system simulator")
		fmt.Printf("   (64-node 8x8 torus, %d mappings, contexts %v, window %d P-cycles)\n\n",
			9, cfg.Contexts, cfg.Window)
		v, err := experiments.RunValidation(ctx, cfg)
		if err != nil {
			return err
		}
		report.RenderValidation(os.Stdout, v)
		if err := writeCSV("validation.csv", func(w *os.File) error { return report.WriteValidationCSV(w, v) }); err != nil {
			return err
		}
		fmt.Println("model agreement (Figures 4-5):")
		for _, cv := range v.Curves {
			var sumRate, sumLat, maxRate, maxLat float64
			for i := range cv.Points {
				re, le := cv.RateErrors()[i], cv.LatencyErrors()[i]
				sumRate += re
				sumLat += le
				if re > maxRate {
					maxRate = re
				}
				if le > maxLat {
					maxLat = le
				}
			}
			n := float64(len(cv.Points))
			fmt.Printf("  p=%d: message rate error mean %.1f%% (max %.1f%%); latency error mean %.1f (max %.1f) N-cycles\n",
				cv.P, sumRate/n*100, maxRate*100, sumLat/n, maxLat)
		}
		fmt.Println()
		return nil
	})

	run("6", func() error {
		res, err := experiments.RunFigure6(experiments.DefaultFigure6Config())
		if err != nil {
			return err
		}
		report.RenderFigure6(os.Stdout, res)
		return writeCSV("figure6.csv", func(w *os.File) error { return report.WriteFigure6CSV(w, res) })
	})

	run("7", func() error {
		res, err := experiments.RunFigure7(experiments.DefaultFigure7Config())
		if err != nil {
			return err
		}
		report.RenderFigure7(os.Stdout, res)
		return writeCSV("figure7.csv", func(w *os.File) error { return report.WriteFigure7CSV(w, res) })
	})

	run("8", func() error {
		cases, err := experiments.RunFigure8(experiments.DefaultFigure8Config())
		if err != nil {
			return err
		}
		report.RenderFigure8(os.Stdout, cases)
		return writeCSV("figure8.csv", func(w *os.File) error { return report.WriteFigure8CSV(w, cases) })
	})

	run("table1", func() error {
		rows, err := experiments.RunTable1(experiments.DefaultTable1Config())
		if err != nil {
			return err
		}
		report.RenderTable1(os.Stdout, rows)
		return writeCSV("table1.csv", func(w *os.File) error { return report.WriteTable1CSV(w, rows) })
	})

	run("tolerance", func() error {
		cfg := experiments.DefaultToleranceConfig()
		cfg.Exec = exec
		if *quick {
			cfg.Warmup = 1500
			cfg.Window = 5000
		}
		rows, err := experiments.RunTolerance(ctx, cfg)
		if err != nil {
			return err
		}
		report.RenderTolerance(os.Stdout, rows)
		return nil
	})

	run("dimensions", func() error {
		cfg := experiments.DefaultDimensionConfig()
		rows, err := experiments.RunDimensionStudy(cfg)
		if err != nil {
			return err
		}
		report.RenderDimensionStudy(os.Stdout, cfg.Nodes, rows)
		return nil
	})

	run("gainsim", func() error {
		cfg := experiments.DefaultGainSimConfig()
		cfg.Exec = exec
		if *quick {
			cfg.Warmup = 1500
			cfg.Window = 5000
		}
		rows, err := experiments.RunGainSim(ctx, cfg)
		if err != nil {
			return err
		}
		report.RenderGainSim(os.Stdout, rows)
		return nil
	})

	run("contention", func() error {
		rows, err := experiments.RunContentionShare(experiments.DefaultContentionConfig())
		if err != nil {
			return err
		}
		report.RenderContentionShare(os.Stdout, rows)
		return nil
	})

	run("uclnucl", func() error {
		rows, err := experiments.RunUCLvsNUCL(experiments.DefaultUCLvsNUCLConfig())
		if err != nil {
			return err
		}
		report.RenderUCLvsNUCL(os.Stdout, rows)
		return writeCSV("uclnucl.csv", func(w *os.File) error { return report.WriteUCLvsNUCLCSV(w, rows) })
	})
}
