// Command hsinfo enumerates the built-in simulated platforms and
// their domain properties — the discovery interface hStreams exposes
// to users (§II: "Domains are discoverable and enumerable to users.
// Each domain has a set of properties…").
//
// Usage: hsinfo [-machine HSW+2KNC]
package main

import (
	"flag"
	"fmt"
	"os"

	"hstreams/internal/platform"
)

func machines() map[string]*platform.Machine {
	return map[string]*platform.Machine{
		"HSW":      platform.HSWPlusKNC(0),
		"HSW+1KNC": platform.HSWPlusKNC(1),
		"HSW+2KNC": platform.HSWPlusKNC(2),
		"IVB":      platform.IVBPlusKNC(0),
		"IVB+1KNC": platform.IVBPlusKNC(1),
		"IVB+2KNC": platform.IVBPlusKNC(2),
		"HSW+1K40": platform.HSWPlusK40(1),
	}
}

func main() {
	name := flag.String("machine", "", "show one machine (default: all)")
	flag.Parse()

	ms := machines()
	if *name != "" {
		m, ok := ms[*name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown machine %q; known:", *name)
			for n := range ms {
				fmt.Fprintf(os.Stderr, " %s", n)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(1)
		}
		show(m)
		return
	}
	for _, n := range []string{"HSW", "HSW+1KNC", "HSW+2KNC", "IVB", "IVB+1KNC", "IVB+2KNC", "HSW+1K40"} {
		show(ms[n])
		fmt.Println()
	}
}

func show(m *platform.Machine) {
	fmt.Printf("%s\n", m)
	fmt.Printf("  %-8s %-5s %6s %8s %8s %9s %8s %8s\n",
		"domain", "kind", "cores", "thr/core", "GHz", "peak GF/s", "mem GB", "BW GB/s")
	for _, d := range m.Domains() {
		fmt.Printf("  %-8s %-5s %6d %8d %8.2f %9.0f %8.0f %8.0f\n",
			d.Name, d.Kind, d.Cores(), d.ThreadsPerCore, d.ClockGHz, d.PeakGFlops(), d.MemGB, d.MemBWGBs)
	}
	if len(m.Cards) > 0 {
		l := m.Link
		fmt.Printf("  link: %s, %.1f GB/s per direction, %v small-transfer overhead (<%d KB)\n",
			l.Name, l.BWGBs, l.SmallOverhead, l.SmallLimit>>10)
	}
}
