package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"incdata/internal/table"
)

// samples collects latencies of one operation type, in milliseconds.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, or NaN when there are no samples.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.ms, q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the report form of one operation type's latencies: the
// median always, p99 only when at least 1000 samples back it (ten beyond
// the percentile).
func (s *samples) summary() map[string]any {
	out := map[string]any{"n": s.n(), "p50_ms": round(s.quantile(0.5))}
	if s.n() >= 1000 {
		out["p99_ms"] = round(s.quantile(0.99))
	}
	return out
}

// withP99 adds the p99 of s to m under name when at least 1000 samples
// back it.
func withP99(m map[string]metric, name string, s *samples) map[string]metric {
	if s.n() >= 1000 {
		m[name] = metric{Value: s.quantile(0.99), Unit: "ms"}
	}
	return m
}

func round(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	return math.Round(x*1e6) / 1e6
}

// resetPeakRSS starts a measured window's memory peak: it returns freed
// memory to the OS and resets the kernel's resident-set high-water mark
// (VmHWM), so rss_peak_mb covers the window and not the set-up builds or
// the oracle checks before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	var walk func(string)
	walk = func(d string) {
		ents, err := os.ReadDir(d)
		if err != nil {
			return
		}
		for _, e := range ents {
			p := d + "/" + e.Name()
			if e.IsDir() {
				walk(p)
			} else if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	walk(dir)
	return total
}

// fingerprint is an order-independent digest of a set of rows: the row
// count and the wrapping sum of per-row FNV-1a hashes.  Adding and
// removing rows updates it in O(1), which lets the writer of the
// ingest-recover workload track the digest of every committed state.
type fingerprint struct {
	N   int
	Sum uint64
}

func rowHash(rel string, row []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rel))
	for _, c := range row {
		h.Write([]byte{0x1f})
		h.Write([]byte(c))
	}
	// Finalize (splitmix64) so the sum of hashes mixes well.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (f *fingerprint) add(rel string, row []string) {
	f.N++
	f.Sum += rowHash(rel, row)
}

func (f *fingerprint) remove(rel string, row []string) {
	f.N--
	f.Sum -= rowHash(rel, row)
}

func tupleRow(t table.Tuple) []string {
	row := make([]string, len(t))
	for i, v := range t {
		row[i] = v.String()
	}
	return row
}

// relFingerprint digests a relation's tuples in their textual value form,
// so a local answer and a wire answer of the same rows agree.
func relFingerprint(name string, r *table.Relation) fingerprint {
	var f fingerprint
	r.Each(func(t table.Tuple) bool {
		f.add(name, tupleRow(t))
		return true
	})
	return f
}

func rowsFingerprint(name string, rows [][]string) fingerprint {
	var f fingerprint
	for _, r := range rows {
		f.add(name, r)
	}
	return f
}

// dbFingerprint digests every relation of a database.
func dbFingerprint(db *table.Database) fingerprint {
	var f fingerprint
	for _, name := range db.RelationNames() {
		g := relFingerprint(name, db.Relation(name))
		f.N += g.N
		f.Sum += g.Sum
	}
	return f
}
