// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale small|full] [-seed N] <experiment>...
//	experiments -list
//	experiments all
//
// Each experiment prints the rows or series of the corresponding table
// or figure in the paper's evaluation (§V); the internal/harness
// package doc describes the experiments. Every experiment runs its
// simulated ranks in-process.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment sizing: small or full")
	seedFlag := flag.Uint64("seed", 1, "random seed for all generators and partitioners")
	listFlag := flag.Bool("list", false, "list experiment names and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale small|full] [-seed N] <experiment>...|all\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", harness.Names)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, n := range harness.Names {
			fmt.Println(n)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = harness.Names
	}
	for _, name := range names {
		fmt.Printf("=== %s (scale=%s seed=%d) ===\n", name, *scaleFlag, *seedFlag)
		start := time.Now()
		cfg := harness.Config{W: os.Stdout, Scale: scale, Seed: *seedFlag}
		if err := harness.Run(name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}
