package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"palermo/internal/backend/blockfile"
)

// commit is stamped by run.sh from git when the checkout is a repository.
var commit = "none"

// host is the fingerprint every record carries: a number means nothing
// without the machine and storage it was measured on.
type host struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	FSType       string  `json:"fs_type"`
	Direct       bool    `json:"blockfile_direct"`
	FsyncUs      float64 `json:"fsync_us"`
}

// Filesystem magic numbers (statfs f_type) the fingerprint names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
}

func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// probeHost fingerprints the machine and refuses the setups whose numbers
// do not count: a RAM-backed store directory (no I/O latency to hide) and
// GOMAXPROCS above the core count.
func probeHost(dir string) (host, error) {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
	if h.GOMAXPROCS > h.NProc {
		return h, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", h.GOMAXPROCS, h.NProc)
	}
	var err error
	if h.FSType, err = fsType(dir); err != nil {
		return h, err
	}
	if h.FSType == "tmpfs" || h.FSType == "ramfs" {
		return h, fmt.Errorf("store directory %s is on %s: a backend with no latency to hide is not measured", dir, h.FSType)
	}
	if h.SourceSHA256, err = sourceHash("."); err != nil {
		return h, err
	}
	probe := filepath.Join(dir, "probe")
	be, err := blockfile.Open(probe, blockfile.Options{})
	if err != nil {
		return h, fmt.Errorf("blockfile probe: %w", err)
	}
	h.Direct = be.Direct()
	if err := be.Close(); err != nil {
		return h, fmt.Errorf("blockfile probe: %w", err)
	}
	if h.FsyncUs, err = fsyncUs(probe); err != nil {
		return h, err
	}
	return h, os.RemoveAll(probe)
}

// fsyncUs is the median of 64 timed 4 KiB write+fsync rounds in dir.
func fsyncUs(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 64; i++ {
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// sourceHash hashes the Go sources and module files under root, so a
// record names the code it measured even where git is unavailable.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// procSample is the process-wide resource counters a window's deltas come
// from: CPU time (getrusage), storage I/O (/proc/self/io), the Go heap, and
// the host's steal time (/proc/stat: CPU time the hypervisor gave to other
// guests while this one was runnable).
type procSample struct {
	at                  time.Time
	userUs, sysUs       float64
	stealS              float64
	io                  map[string]float64
	mallocs, allocBytes uint64
	numGC               uint32
}

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

func sampleProc() procSample {
	s := procSample{at: time.Now(), io: map[string]float64{}}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.userUs = float64(ru.Utime.Sec)*1e6 + float64(ru.Utime.Usec)
		s.sysUs = float64(ru.Stime.Sec)*1e6 + float64(ru.Stime.Usec)
	}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if n, err := strconv.ParseFloat(strings.TrimSpace(v), 64); ok && err == nil {
				s.io[k] = n
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu  user nice system idle iowait irq softirq steal ...
		if f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0]); len(f) > 8 {
			if n, err := strconv.ParseFloat(f[8], 64); err == nil {
				s.stealS = n / clockTicks
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return s
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
