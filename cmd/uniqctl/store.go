package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/segstore"
	"repro/internal/service"
)

// runStore dispatches the offline store-maintenance subcommands, which
// operate directly on a profile store directory (no server involved):
//
//	uniqctl store stat    -dir ./profiles [-json]  segment/byte/recovery report
//	uniqctl store compact -dir ./profiles          rewrite dead segments now
func runStore(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "uniqctl store: want a subcommand: stat or compact")
		os.Exit(2)
	}
	switch args[0] {
	case "stat":
		runStoreStat(args[1:])
	case "compact":
		runStoreCompact(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "uniqctl store: unknown subcommand %q (want stat or compact)\n", args[0])
		os.Exit(2)
	}
}

// runStoreStat opens the store read-only and prints the segment layout,
// byte accounting and any recovery findings without modifying anything.
func runStoreStat(args []string) {
	fs := flag.NewFlagSet("uniqctl store stat", flag.ExitOnError)
	dir := fs.String("dir", "./profiles", "profile store directory")
	asJSON := fs.Bool("json", false, "print the stats as JSON")
	fs.Parse(args)

	s, err := service.OpenStoreWith(*dir, 1, segstore.Options{ReadOnly: true})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	st := s.SegStats()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("store %s\n", *dir)
	fmt.Printf("  profiles:   %d\n", st.Profiles)
	fmt.Printf("  segments:   %d\n", st.Segments)
	fmt.Printf("  disk bytes: %d\n", st.DiskBytes)
	fmt.Printf("  live bytes: %d\n", st.LiveBytes)
	fmt.Printf("  dead bytes: %d\n", st.DeadBytes)
	if st.Profiles > 0 {
		fmt.Printf("  bytes/profile: %d\n", st.DiskBytes/int64(st.Profiles))
	}
	if st.Recovery.Damaged() {
		fmt.Printf("  recovery: %d damaged segment(s), %d byte(s) unreadable\n",
			st.Recovery.DamagedSegments, st.Recovery.DroppedBytes)
		for _, d := range st.Recovery.Details {
			fmt.Printf("    %s\n", d)
		}
	} else {
		fmt.Printf("  recovery: clean\n")
	}
}

// runStoreCompact opens the store and synchronously rewrites every segment
// past the dead-bytes threshold.
func runStoreCompact(args []string) {
	fs := flag.NewFlagSet("uniqctl store compact", flag.ExitOnError)
	dir := fs.String("dir", "./profiles", "profile store directory")
	fs.Parse(args)

	s, err := service.OpenStore(*dir, 1)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	before := s.SegStats()
	if err := s.Compact(); err != nil {
		fatal(err)
	}
	after := s.SegStats()
	fmt.Printf("store %s: %d -> %d bytes on disk (%d segment(s) -> %d)\n",
		*dir, before.DiskBytes, after.DiskBytes, before.Segments, after.Segments)
}
