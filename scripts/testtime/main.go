// Command testtime turns `go test -json` on stdin into what a plain
// `go test` run prints — a line per package and the output of every test
// that failed — followed by a test-time report: each package's time and the
// ten slowest tests. It reports and sets no threshold; it exits 1 when a
// package or test failed.
//
//	go test -json ./... | go run ./scripts/testtime
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

type event struct {
	Action, Package, Test, Output string
	Elapsed                       float64
}

type timed struct {
	name    string
	elapsed float64
}

func main() {
	var pkgs, tests []timed
	outputs := map[string][]string{} // by package and test, until the test ends
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Action == "" {
			fmt.Println(sc.Text())
			continue
		}
		key := e.Package + " " + e.Test
		switch e.Action {
		case "output":
			outputs[key] = append(outputs[key], e.Output)
		case "build-output":
			fmt.Print(e.Output)
		case "build-fail":
			failed = true
		case "pass", "fail", "skip":
			if e.Action == "fail" {
				failed = true
				fmt.Print(strings.Join(outputs[key], ""))
			}
			delete(outputs, key)
			switch {
			case e.Test != "":
				tests = append(tests, timed{e.Package + " " + e.Test, e.Elapsed})
			case e.Action == "skip":
				fmt.Printf("?   \t%s\t[no test files]\n", e.Package)
			default:
				pkgs = append(pkgs, timed{e.Package, e.Elapsed})
				if e.Action == "pass" {
					fmt.Printf("ok  \t%s\t%.3fs\n", e.Package, e.Elapsed)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "testtime:", err)
		failed = true
	}
	byTime := func(a, b timed) int { return cmp.Compare(b.elapsed, a.elapsed) }
	slices.SortStableFunc(pkgs, byTime)
	slices.SortStableFunc(tests, byTime)
	fmt.Println("test time by package:")
	for _, p := range pkgs {
		fmt.Printf("  %8.3fs  %s\n", p.elapsed, p.name)
	}
	fmt.Println("slowest tests:")
	for _, t := range tests[:min(10, len(tests))] {
		fmt.Printf("  %8.3fs  %s\n", t.elapsed, t.name)
	}
	if failed {
		os.Exit(1)
	}
}
