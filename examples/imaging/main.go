// Imaging: an anytime image-processing pipeline in the spirit of the
// paper's Figures 2 and 16. A battery-free camera node Gaussian-filters a
// frame; we compare what the conventional build and the WN build can
// deliver at the same interrupted-energy budget, and write the images as
// PGM files.
//
//	go run ./examples/imaging [outdir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/mem"
	"whatsnext/internal/quality"
	"whatsnext/internal/workloads"
)

func main() {
	outDir := "out"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	b := workloads.Conv2d()
	p := b.ScaledParams()
	in := b.Inputs(p, 9)
	golden := b.Golden(p, in)

	precise, err := compiler.Compile(b.Build(p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		log.Fatal(err)
	}
	baseCycles := runBudget(precise, in, 0)
	fmt.Printf("precise filter: %d cycles for a %dx%d frame\n", baseCycles, p.ImgW, p.ImgH)

	write := func(name string, px []float64) {
		path := filepath.Join(outDir, name+".pgm")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := quality.WritePGM(f, px, p.ImgW, p.ImgH); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write("imaging_exact", golden)

	// The energy budget a few harvest bursts would give: 60% of a frame.
	budget := baseCycles * 6 / 10

	// Conventional build at the budget: the frame is cut off mid-scan.
	m := runForImage(precise, in, budget)
	px, err := precise.Layout.AppendOutputValues(nil, m, b.Output)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conventional at %d cycles: NRMSE %.2f%%\n", budget, quality.NRMSE(px, golden))
	write("imaging_conventional_cut", px)

	// WN builds at the same budget: complete frames, refining with bits.
	for _, bits := range []int{1, 2, 4, 8} {
		wn, err := compiler.Compile(b.Build(p, bits, false), compiler.Options{Mode: compiler.ModeSWP})
		if err != nil {
			log.Fatal(err)
		}
		m := runForImage(wn, in, budget)
		px, err := wn.Layout.AppendOutputValues(nil, m, b.Output)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("WN %d-bit at %d cycles:  NRMSE %.2f%%\n", bits, budget, quality.NRMSE(px, golden))
		write(fmt.Sprintf("imaging_wn_%dbit", bits), px)
	}
}

// runBudget executes the program until halt (budget 0) or the cycle budget
// and returns the cycles consumed.
func runBudget(c *compiler.Compiled, in map[string][]int64, budget uint64) uint64 {
	cp, _ := device(c, in)
	var cycles uint64
	for !cp.Halted {
		cost, err := cp.Step()
		if err != nil {
			log.Fatal(err)
		}
		cycles += uint64(cost.Cycles)
		if budget != 0 && cycles >= budget {
			break
		}
	}
	return cycles
}

// runForImage executes up to the budget and returns the memory for output
// extraction.
func runForImage(c *compiler.Compiled, in map[string][]int64, budget uint64) *mem.Memory {
	cp, m := device(c, in)
	var cycles uint64
	for !cp.Halted {
		cost, err := cp.Step()
		if err != nil {
			log.Fatal(err)
		}
		cycles += uint64(cost.Cycles)
		if cycles >= budget {
			break
		}
	}
	return m
}

func device(c *compiler.Compiled, in map[string][]int64) (*cpu.CPU, *mem.Memory) {
	m, cp, err := core.NewDevice(core.ProgramOf(c, in))
	if err != nil {
		log.Fatal(err)
	}
	return cp, m
}
