package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// conns is the number of closed-loop connections of a serve workload:
// one per core of the 2-core box the generator shares with the server.
const conns = 2

// latencyLimit is the latency a reply must meet; a failed or wrong
// reply counts as missing it.
const latencyLimit = 2 * time.Millisecond

// serverProc is a running probase-serve -mmap child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string        // host:port it listens on
	started time.Time     // just before exec
	drained chan struct{} // closed when stderr hits EOF
	tail    []string      // last stderr lines, for error reports
}

var listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startServer execs probase-serve on a free loopback port (-addr :0;
// the bound port is read from the "listening" log line) and returns
// once the listener is up.
func (e *env) startServer(snapshot string) (*serverProc, error) {
	s := &serverProc{drained: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(e.bin, "probase-serve"),
		"-snapshot", snapshot, "-mmap", "-addr", "127.0.0.1:0")
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil && s.addr == "" {
				s.addr = m[1]
				addr <- m[1]
			}
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
		}
	}()
	select {
	case <-addr:
		return s, nil
	case <-s.drained:
		s.cmd.Wait()
		return nil, fmt.Errorf("probase-serve exited before listening: %s", strings.Join(s.tail, " | "))
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
		s.cmd.Wait()
		return nil, fmt.Errorf("probase-serve did not listen within 20s")
	}
}

// stop sends SIGTERM and waits for the process to end, killing it if
// the drain outlasts ten seconds.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	s.cmd.Wait()
}

// cpu returns the user+system CPU time the server has used so far.
func (s *serverProc) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100) // USER_HZ is 100 on Linux
}

// rssMB returns the server's resident set size.
func (s *serverProc) rssMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient returns an HTTP client that owns exactly one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// do sends one request and reads the whole body.
func do(c *http.Client, method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// get sends one planned request and checks the reply: status 200, and
// for 1 request in 64 the body, byte for byte.
func (p *plan) get(c *http.Client, base string, idx, n int) (time.Duration, bool) {
	start := time.Now()
	status, body, err := do(c, http.MethodGet, base+p.pool[idx].uri)
	lat := time.Since(start)
	ok := err == nil && status == http.StatusOK
	if ok && n%checkEvery == 0 && p.expected[idx] != nil {
		ok = bytes.Equal(body, p.expected[idx])
	}
	return lat, ok
}

// window is one measurement interval of a closed loop.
type window struct {
	lat       []int64 // latency of each correct operation, ns, ascending after close
	attempted int
	failed    int
}

func (w *window) add(lat time.Duration, ok bool) {
	w.attempted++
	if ok {
		w.lat = append(w.lat, int64(lat))
	} else {
		w.failed++
	}
}

// loop runs op in a closed loop — the next call starts when the
// previous one returns — as a warm-up until start and then through n
// windows of the given length, and returns the windows. An operation
// belongs to the window it finishes in.
func loop(start time.Time, length time.Duration, n int, op func(i int) (time.Duration, bool)) []window {
	ws := make([]window, n)
	for i := 0; ; i++ {
		lat, ok := op(i)
		since := time.Since(start)
		if since < 0 {
			continue
		}
		w := int(since / length)
		if w >= n {
			return ws
		}
		ws[w].add(lat, ok)
		if !ok {
			time.Sleep(time.Millisecond) // do not spin on a dead server
		}
	}
}

// merge joins the windows of several connections index by index and
// sorts each merged window's latencies.
func merge(per ...[]window) []window {
	out := make([]window, len(per[0]))
	for _, ws := range per {
		for i, w := range ws {
			out[i].lat = append(out[i].lat, w.lat...)
			out[i].attempted += w.attempted
			out[i].failed += w.failed
		}
	}
	for i := range out {
		sort.Slice(out[i].lat, func(a, b int) bool { return out[i].lat[a] < out[i].lat[b] })
	}
	return out
}

// traffic is what one closed-loop run against a live server measured.
type traffic struct {
	windows   []window
	serverCPU time.Duration // over the windows
	selfCPU   time.Duration
	hitRatio  float64 // response-cache hits / lookups over the windows
	rssMB     float64 // server RSS at the end
}

// runTraffic drives plan p at srv over conns closed-loop connections.
// beside, when non-nil, replaces the last connection's work: it runs in
// the same closed loop next to the plan traffic (serve-reload's
// reloads) and its windows are returned second.
func runTraffic(srv *serverProc, p *plan, warmup, length time.Duration, n int,
	beside func(c *http.Client, i int) (time.Duration, bool)) (traffic, []window) {
	base := "http://" + srv.addr
	planConns := conns
	if beside != nil {
		planConns--
	}
	per := make([][]window, planConns)
	var besideWs []window
	start := time.Now().Add(warmup)
	var wg sync.WaitGroup
	for c := 0; c < planConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, next := newClient(), p.stream(c, planConns)
			per[c] = loop(start, length, n, func(i int) (time.Duration, bool) {
				return p.get(client, base, next(), i)
			})
		}(c)
	}
	if beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			besideWs = loop(start, length, n, func(i int) (time.Duration, bool) { return beside(client, i) })
		}()
	}
	// Counters are read at the window boundaries from this goroutine,
	// which otherwise sleeps: the workers alone generate load.
	scrape := newClient()
	time.Sleep(time.Until(start))
	var t traffic
	cpu0, self0 := srv.cpu(), selfCPU()
	hits0, misses0 := cacheCounters(scrape, base)
	time.Sleep(time.Duration(n) * length)
	t.serverCPU, t.selfCPU = srv.cpu()-cpu0, selfCPU()-self0
	hits1, misses1 := cacheCounters(scrape, base)
	if lookups := (hits1 - hits0) + (misses1 - misses0); lookups > 0 {
		t.hitRatio = (hits1 - hits0) / lookups
	}
	wg.Wait()
	t.rssMB = srv.rssMB()
	t.windows = merge(per...)
	if beside != nil {
		besideWs = merge(besideWs)
	}
	return t, besideWs
}

// cacheCounters sums probase_cache_{hits,misses}_total over endpoints
// from the server's /metrics page.
func cacheCounters(c *http.Client, base string) (hits, misses float64) {
	_, body, err := do(c, http.MethodGet, base+"/metrics")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch {
		case strings.HasPrefix(f[0], "probase_cache_hits_total{"):
			hits += v
		case strings.HasPrefix(f[0], "probase_cache_misses_total{"):
			misses += v
		}
	}
	return hits, misses
}

// windowStats reduces the windows of one closed loop to the numbers a
// report quotes. The two end-to-end numbers are those of the best
// window, not of the median one: whatever else runs on the host only
// ever adds time, in bursts of a second or so, and the window the bursts
// missed is the one that measured the program. Over 25 six-second runs
// of one commit the best window's p50 ranged over 11 %, the median
// window's over 23 %.
type windowStats struct {
	p50ms             float64 // lowest p50 of any window
	perSec            float64 // highest throughput of any window
	p99us             float64 // median over windows of p99: information only
	p999us, maxUS     float64 // over all windows pooled: information only
	withinLimit       float64 // share of attempted ops that were correct and met latencyLimit
	spread            float64 // (max - min window throughput) / median
	samples           int     // correct operations over all windows
	attempted, failed int
}

// summarize reduces the merged windows of a loop run by `concurrency`
// connections. A window's throughput is concurrency / its mean latency,
// which is what a closed loop delivers and, unlike replies / length,
// does not come in steps of one reply per window.
func summarize(ws []window, concurrency int) windowStats {
	var s windowStats
	var p99s, rates []float64
	var all []int64
	met := 0
	for _, w := range ws {
		s.attempted += w.attempted
		s.failed += w.failed
		if len(w.lat) == 0 {
			continue
		}
		var total int64
		for _, l := range w.lat {
			total += l
		}
		rates = append(rates, float64(concurrency)*float64(len(w.lat))/(float64(total)/1e9))
		if p50 := float64(percentile(w.lat, 0.5)) / 1e6; s.p50ms == 0 || p50 < s.p50ms {
			s.p50ms = p50
		}
		p99s = append(p99s, float64(percentile(w.lat, 0.99))/1e3)
		all = append(all, w.lat...)
		met += sort.Search(len(w.lat), func(i int) bool { return w.lat[i] > int64(latencyLimit) })
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	s.samples = len(all)
	s.p99us = median(p99s)
	s.p999us = float64(percentile(all, 0.999)) / 1e3
	if len(all) > 0 {
		s.maxUS = float64(all[len(all)-1]) / 1e3
	}
	if s.attempted > 0 {
		s.withinLimit = float64(met) / float64(s.attempted)
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		s.perSec = rates[len(rates)-1]
		s.spread = (s.perSec - rates[0]) / median(rates)
	}
	return s
}
