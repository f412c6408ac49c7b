package main

import (
	"fmt"
	"io"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/synthmodel"
)

// suiteEntry is one wnbench experiment as the suite-default workload runs
// it: the study call plus the Print* rendering, writing to w.
type suiteEntry struct {
	name string
	run  func(w io.Writer, proto experiments.Protocol) error
}

// Flags of `wnbench -exp all` (with an empty -out) that the suite reproduces.
const (
	suiteSamples     = 120
	suiteFaultPoints = 32
)

// suite lists wnbench's registry in its `-exp all` order. The committed
// suite-default digest equals that of `wnbench -exp all` with an empty -out, so any
// drift between this list and the registry fails the benchmark's check.
var suite = []suiteEntry{
	{"table1", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.Table1(p)
		if err == nil {
			experiments.PrintTable1(w, rows)
		}
		return err
	}},
	{"fig2", func(w io.Writer, p experiments.Protocol) error {
		r, err := experiments.Figure2(p, "")
		if err == nil {
			experiments.PrintFigure2(w, r)
		}
		return err
	}},
	{"fig3", func(w io.Writer, p experiments.Protocol) error {
		r, err := experiments.Figure3(7)
		if err == nil {
			experiments.PrintFigure3(w, r)
		}
		return err
	}},
	{"fig9", func(w io.Writer, p experiments.Protocol) error {
		curves, err := experiments.Figure9(p, suiteSamples)
		if err == nil {
			experiments.PrintFigure9(w, curves)
		}
		return err
	}},
	{"fig10", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.SpeedupStudy(core.ProcClank, p)
		if err == nil {
			experiments.PrintSpeedup(w, "Figure 10: speedup and quality on the checkpointing volatile processor", rows)
		}
		return err
	}},
	{"fig11", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.SpeedupStudy(core.ProcNVP, p)
		if err == nil {
			experiments.PrintSpeedup(w, "Figure 11: speedup and quality on the non-volatile processor", rows)
		}
		return err
	}},
	{"fig12", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.Figure12(p)
		if err == nil {
			experiments.PrintFigure12(w, rows)
		}
		return err
	}},
	{"fig13", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.Figure13(p)
		if err == nil {
			experiments.PrintFigure13(w, rows)
		}
		return err
	}},
	{"fig14", func(w io.Writer, p experiments.Protocol) error {
		prov, unprov, err := experiments.Figure14(p, suiteSamples)
		if err == nil {
			experiments.PrintFigure14(w, prov, unprov)
		}
		return err
	}},
	{"fig15", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.Figure15(p)
		if err == nil {
			experiments.PrintFigure15(w, rows)
		}
		return err
	}},
	{"fig16", func(w io.Writer, p experiments.Protocol) error {
		r, err := experiments.Figure16(p, "")
		if err == nil {
			experiments.PrintFigure16(w, r)
		}
		return err
	}},
	{"fig17", func(w io.Writer, p experiments.Protocol) error {
		pts, avg, err := experiments.Figure17(p)
		if err == nil {
			experiments.PrintFigure17(w, pts, avg)
		}
		return err
	}},
	{"fig1", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.StreamStudy(p, 16)
		if err == nil {
			experiments.PrintStream(w, rows)
		}
		return err
	}},
	{"ablation", runAblation},
	{"env", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.EnvironmentStudy(p)
		if err == nil {
			experiments.PrintEnvironments(w, rows)
		}
		return err
	}},
	{"faults", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.FaultStudy(p, nil, suiteFaultPoints)
		if err != nil {
			return err
		}
		experiments.PrintFaults(w, rows)
		if !experiments.FaultsClean(rows) {
			return fmt.Errorf("fault injection witnessed crash-consistency divergences")
		}
		return nil
	}},
	{"progress", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.ProgressStudy(p)
		if err == nil {
			experiments.PrintProgress(w, rows)
		}
		return err
	}},
	{"nn", func(w io.Writer, p experiments.Protocol) error {
		rows, err := experiments.NNStudy(p)
		if err == nil {
			experiments.PrintNN(w, rows)
		}
		return err
	}},
	{"areapower", func(w io.Writer, p experiments.Protocol) error {
		fmt.Fprintln(w, synthmodel.Evaluate(energy.DefaultDeviceConfig().ClockHz))
		return nil
	}},
}

func runAblation(w io.Writer, p experiments.Protocol) error {
	rows, err := experiments.SkimAblation(p)
	if err != nil {
		return err
	}
	experiments.PrintSkimAblation(w, rows)
	fmt.Fprintln(w)
	wd, err := experiments.WatchdogSweep(p, []uint64{1024, 2048, 4096, 8192, 65536})
	if err != nil {
		return err
	}
	experiments.PrintWatchdogSweep(w, wd)
	fmt.Fprintln(w)
	caps, err := experiments.CapacitorSweep(p, []float64{2, 4.7, 10, 22, 47})
	if err != nil {
		return err
	}
	experiments.PrintCapacitorSweep(w, caps)
	fmt.Fprintln(w)
	memo, err := experiments.MemoEntriesSweep(p, []int{4, 16, 64, 256})
	if err != nil {
		return err
	}
	experiments.PrintMemoEntriesSweep(w, memo)
	fmt.Fprintln(w)
	cons, err := experiments.ConsistencySweep(p)
	if err != nil {
		return err
	}
	experiments.PrintConsistencySweep(w, cons)
	return nil
}
