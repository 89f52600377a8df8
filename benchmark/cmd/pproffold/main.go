// Command pproffold prints the benchmark's per-layer table for Go CPU
// profiles: the benchmark's own, or any written by nmdetect, nmserve or the
// other commands with -cpuprofile.
//
// Usage (from the benchmark directory):
//
//	go run ./cmd/pproffold cpu.pprof [more.pprof ...]
package main

import (
	"fmt"
	"os"

	"nmdetect/benchmark/fold"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pproffold cpu.pprof [more.pprof ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := foldFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "pproffold:", err)
			os.Exit(1)
		}
	}
}

func foldFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := fold.Parse(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return fold.FoldCPU(p).Write(os.Stdout, path)
}
