// Command uniqctl runs the UNIQ personalization pipeline on a simulated
// measurement session and exports the resulting §4.4 lookup table — or,
// with the submit/get subcommands, drives a running uniqd server instead
// of solving in-process.
//
// Usage:
//
//	uniqctl [-user N] [-seed N] [-quality good|droop|wild] [-out table.json] [-compare]
//	uniqctl submit  -server http://host:8080 [-user N] [-seed N] [-quality good|droop|wild] [-name ID]
//	uniqctl get     -server http://host:8080 -name ID [-out profile.json]
//	uniqctl stream  -server http://host:8080 -name ID -in in.wav [-out out.wav]
//	                [-source deg] [-scene scene.json] [-yaw-rate deg/s] [-frame ms] [-aoa]
//	uniqctl metrics -server http://host:8080 [-json] [-grep substr]
//	uniqctl nodes   -server http://host:8080 [-json]
//	uniqctl store   stat|compact -dir ./profiles [-json]
//	uniqctl -version
//
// -compare additionally measures the user's ground-truth HRTF and the
// global template and reports the personalization gain.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/uniq"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit":
			runSubmit(os.Args[2:])
			return
		case "get":
			runGet(os.Args[2:])
			return
		case "stream":
			runStream(os.Args[2:])
			return
		case "metrics":
			runMetrics(os.Args[2:])
			return
		case "nodes":
			runNodes(os.Args[2:])
			return
		case "store":
			runStore(os.Args[2:])
			return
		}
	}
	user := flag.Int("user", 1, "virtual user id")
	seed := flag.Int64("seed", 2024, "virtual user seed")
	quality := flag.String("quality", "good", "gesture quality: good, droop, wild")
	out := flag.String("out", "", "write the lookup table JSON to this file")
	compare := flag.Bool("compare", false, "compare against ground truth and the global template")
	force := flag.Bool("force", false, "skip the gesture quality check")
	renderDeg := flag.Float64("render", -1, "also render a demo sound from this angle (degrees)")
	wavOut := flag.String("wav", "uniq-demo.wav", "output file for -render")
	spherical := flag.Bool("spherical", false, "measure on three elevation rings (3D extension)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *version {
		fmt.Println("uniqctl", buildinfo.Version())
		return
	}

	q, ok := parseQuality(*quality)
	if !ok {
		fmt.Fprintf(os.Stderr, "uniqctl: unknown quality %q\n", *quality)
		os.Exit(2)
	}

	u := uniq.VirtualUser{ID: *user, Seed: *seed}
	if *spherical {
		runSpherical(u, q, *out)
		return
	}
	fmt.Printf("simulating measurement sweep for user %d (seed %d, gesture %s)...\n", *user, *seed, q)
	in, err := uniq.SimulateSession(u, q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("session: %d stops, %.0f Hz audio, %d IMU samples\n",
		len(in.Stops), in.SampleRate, len(in.IMU))

	prof, err := uniq.Personalize(in, uniq.Options{SkipGestureCheck: *force})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("personalized: head %v, fusion residual %.1f°, %s\n",
		prof.HeadParams, prof.MeanResidualDeg, prof.QualityReport)
	fmt.Printf("lookup table: %d angles x (near+far) HRIR pairs\n", prof.Table.NumAngles())

	if *compare {
		gnd, err := uniq.GroundTruthProfile(u, in.SampleRate, 1)
		if err != nil {
			fatal(err)
		}
		glob, err := uniq.GlobalProfile(in.SampleRate, 1)
		if err != nil {
			fatal(err)
		}
		sPers := uniq.Similarity(gnd, prof)
		sGlob := uniq.Similarity(gnd, glob)
		fmt.Printf("similarity to ground truth: personalized %.3f vs global %.3f (%.2fx gain)\n",
			sPers, sGlob, sPers/sGlob)
	}

	if *renderDeg >= 0 {
		mono := uniq.Chirp(300, 4000, 1.0, in.SampleRate)
		left, right, err := prof.Render(mono, *renderDeg, true)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*wavOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := prof.WriteWAV(f, left, right); err != nil {
			fatal(err)
		}
		fmt.Printf("rendered a 1 s sweep from %.0f° into %s\n", *renderDeg, *wavOut)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := prof.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// runSpherical handles the -spherical mode: three elevation rings.
func runSpherical(u uniq.VirtualUser, q uniq.GestureQuality, out string) {
	fmt.Printf("simulating spherical sweep for user %d (rings -25/0/+25)...\n", u.ID)
	rings, err := uniq.SimulateSphericalSession(u, q, []float64{-25, 0, 25})
	if err != nil {
		fatal(err)
	}
	p3, err := uniq.PersonalizeSpherical(rings, uniq.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("3D profile ready: rings at %v degrees\n", p3.Elevations())
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := p3.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "uniqctl: %v\n", err)
	os.Exit(1)
}
