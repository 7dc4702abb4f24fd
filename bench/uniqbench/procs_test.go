package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseSchedstat(t *testing.T) {
	d, err := parseSchedstat([]byte("1234567890 55 7\n"))
	if err != nil || d != 1234567890*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v; want 1.23456789s", d, err)
	}
	for _, bad := range []string{"", "12 3", "x 1 2", "1 2 3 4"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tuniqd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 123456<<10 {
		t.Errorf("parseVmHWM = %d, %v; want %d", got, err, 123456<<10)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	pid := os.Getpid()
	// Burn a little CPU so the schedstat sum is visibly non-zero.
	x := 0.0
	for i := 0; i < 5_000_000; i++ {
		x += float64(i)
	}
	_ = x
	cpu, err := cpuTime(pid)
	if err != nil || cpu <= 0 {
		t.Errorf("cpuTime(self) = %v, %v", cpu, err)
	}
	rss, err := peakRSS(pid)
	if err != nil || rss <= 0 {
		t.Errorf("peakRSS(self) = %v, %v", rss, err)
	}
}

func TestFreshStoreLinksSealedSegmentsAndCopiesTheRest(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	for name, body := range map[string]string{
		"seg-00000001.uqs":       "sealed one",
		"seg-00000002.uqs":       "sealed two",
		"seg-00000003.uqs":       "active",
		".population-prior.json": "{}",
	} {
		if err := os.WriteFile(filepath.Join(src, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := freshStore(src, dst); err != nil {
		t.Fatal(err)
	}
	same := func(name string) bool {
		a, errA := os.Stat(filepath.Join(src, name))
		b, errB := os.Stat(filepath.Join(dst, name))
		if errA != nil || errB != nil {
			t.Fatalf("stat %s: %v %v", name, errA, errB)
		}
		return os.SameFile(a, b)
	}
	if !same("seg-00000001.uqs") || !same("seg-00000002.uqs") {
		t.Error("sealed segments should be hard links")
	}
	if same("seg-00000003.uqs") || same(".population-prior.json") {
		t.Error("the newest segment and other files must be private copies")
	}
	// Writing the copy of the newest segment must leave the seed intact.
	if err := os.WriteFile(filepath.Join(dst, "seg-00000003.uqs"), []byte("appended"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(src, "seg-00000003.uqs")); string(data) != "active" {
		t.Errorf("seed segment changed to %q", data)
	}
}
