package benchkit

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (my (odd) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 7 3 20 0 9 0 1000 123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Fatalf("parseStatCPU = %v, %v; want utime 250 + stime 50 ticks = 3 s", got, err)
	}
	for _, bad := range []string{"", "1 no-parens S", "1 (x) S 1 2"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil || got != 20 {
		t.Fatalf("parseStatusHWM = %v, %v; want 20 MB", got, err)
	}
	if _, err := parseStatusHWM("Name:\tkthread\n"); err == nil {
		t.Error("a status without VmHWM parsed, want an error")
	}
	if _, err := parseStatusHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("a VmHWM in an unexpected unit parsed, want an error")
	}
}

func TestReadsThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	// Burn a little CPU so the counters cannot be zero by accident.
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	cpu, err := ProcCPU(os.Getpid())
	if err != nil || cpu < 0 {
		t.Fatalf("ProcCPU(self) = %v, %v", cpu, err)
	}
	mb, err := PeakRSSMB(os.Getpid())
	if err != nil || mb <= 1 {
		t.Fatalf("PeakRSSMB(self) = %v, %v; want more than a megabyte", mb, err)
	}
}
