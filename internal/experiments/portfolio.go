package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/datagen"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// PortfolioRow compares the portfolio engine against the best sequential
// configuration on one Experiment 2 mapping task.
type PortfolioRow struct {
	// Domain and Target identify the BAMM task.
	Domain string
	Target int
	// SeqStates and SeqTime are the sequential run of the paper's best
	// configuration (RBFS/cosine).
	SeqStates int
	SeqTime   time.Duration
	// Winner is the portfolio member that won the race.
	Winner core.PortfolioConfig
	// PortStates and PortTime are the winner's states examined and the
	// whole race's wall-clock time.
	PortStates int
	PortTime   time.Duration
	// SameMapping reports whether applying the portfolio's mapping to the
	// source yields the same database as the sequential mapping.
	SameMapping bool
}

// PortfolioOptions selects the grid for the portfolio comparison.
type PortfolioOptions struct {
	// Configs are the portfolio members (nil = core.DefaultPortfolio()).
	Configs []core.PortfolioConfig
	// SampleEvery maps only every n-th sibling schema (default 2, a
	// representative subset: the portfolio comparison is about wall-clock
	// time, not figures from the paper).
	SampleEvery int
}

// RunPortfolio races the portfolio against the paper's best sequential
// configuration (RBFS/cosine) on BAMM Experiment 2 tasks, reporting per
// task whether the verified mappings agree and how the wall-clock times
// compare.
func RunPortfolio(opts PortfolioOptions, cfg Config) ([]PortfolioRow, error) {
	cfg = cfg.withDefaults()
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 2
	}
	var out []PortfolioRow
	for _, d := range datagen.BAMM(cfg.Seed) {
		for i := 0; i < len(d.Targets); i += opts.SampleEvery {
			row, err := portfolioTask(d.Name, i, d.Fixed, d.Targets[i], opts, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "portfolio %-10s target=%-3d seq=%-8s race=%-8s winner=%s same=%v\n",
					row.Domain, row.Target, row.SeqTime.Round(time.Microsecond),
					row.PortTime.Round(time.Microsecond), row.Winner, row.SameMapping)
			}
		}
	}
	return out, nil
}

func portfolioTask(domain string, target int, src, tgt *relation.Database, opts PortfolioOptions, cfg Config) (PortfolioRow, error) {
	row := PortfolioRow{Domain: domain, Target: target}
	base := core.Options{
		Limits:  cfg.limits(),
		Metrics: cfg.Metrics,
	}

	seqOpts := base
	seqOpts.Algorithm = search.RBFS
	// Heuristic zero value resolves to cosine: the paper's best sequential
	// configuration.
	start := time.Now()
	seq, err := core.Discover(src, tgt, seqOpts)
	row.SeqTime = time.Since(start)
	if err != nil {
		return row, fmt.Errorf("experiments: portfolio %s/%d sequential: %w", domain, target, err)
	}
	row.SeqStates = seq.Stats.Examined

	start = time.Now()
	port, err := core.DiscoverPortfolio(context.Background(), src, tgt, core.PortfolioOptions{
		Configs:    opts.Configs,
		Options:    base,
		MaxRetries: cfg.Retries,
	})
	row.PortTime = time.Since(start)
	if err != nil {
		return row, fmt.Errorf("experiments: portfolio %s/%d race: %w", domain, target, err)
	}
	row.Winner = port.Winner
	row.PortStates = port.Stats.Examined

	a, err := seq.Apply(src, core.Options{})
	if err != nil {
		return row, err
	}
	b, err := port.Apply(src, core.Options{})
	if err != nil {
		return row, err
	}
	row.SameMapping = a.Fingerprint() == b.Fingerprint()
	return row, nil
}

// WritePortfolioTable renders the portfolio comparison.
func WritePortfolioTable(w io.Writer, rows []PortfolioRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "domain\ttarget\tseq states\tseq time\trace time\twinner\tsame mapping")
	var same, total int
	var seqSum, portSum time.Duration
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%v\n",
			r.Domain, r.Target, r.SeqStates,
			r.SeqTime.Round(time.Microsecond), r.PortTime.Round(time.Microsecond),
			r.Winner, r.SameMapping)
		total++
		if r.SameMapping {
			same++
		}
		seqSum += r.SeqTime
		portSum += r.PortTime
	}
	fmt.Fprintf(tw, "total\t%d\t\t%s\t%s\t\t%d/%d same\n",
		total, seqSum.Round(time.Microsecond), portSum.Round(time.Microsecond), same, total)
	return tw.Flush()
}
