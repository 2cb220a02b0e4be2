package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/dot11"
	"repro/internal/station"
	"repro/internal/trace"
)

// The hided-churn load: two closed-loop workers, each holding one client
// connection at a time. A cycle associates a fresh client, holds the
// association, leaves with a disassociation frame and disconnects.
const (
	churnWorkers = 2
	churnHold    = 25 * time.Millisecond
	assocTimeout = time.Second // a cycle not associated by then fails
	gapPoll      = 5 * time.Millisecond
)

// childEnv, when set, makes the benchmark binary run as the hided child
// of the hided-churn workload; its value is the seed.
const childEnv = "HIDEBENCH_HIDED_SEED"

// hidedChildMain runs hided with cmd/hided's defaults on free loopback
// ports, prints "<air addr> <control addr>" on standard output, and
// serves until SIGTERM, then drains. It returns the exit code.
func hidedChildMain() int {
	seed, err := strconv.ParseUint(os.Getenv(childEnv), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hided child: bad seed: %v\n", err)
		return 2
	}
	d, err := daemon.New(daemon.Config{
		Listen:         "127.0.0.1:0",
		Control:        "127.0.0.1:0",
		SSID:           "hide-net",
		DTIMPeriod:     3,
		Scenario:       "Starbucks",
		PingInterval:   daemon.Duration(time.Second),
		MaxMissedPings: 3,
		DrainDeadline:  daemon.Duration(5 * time.Second),
		StatsEvery:     daemon.Duration(10 * time.Second),
		Seed:           seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hided child: %v\n", err)
		return 1
	}
	fmt.Println(d.AirAddr(), d.ControlAddr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hided child: %v\n", err)
		return 1
	}
	return 0
}

// httpClient scrapes the child's control plane, one connection per
// request so the load never holds more than its two client sockets.
var httpClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// hidedProc is a running hided child.
type hidedProc struct {
	cmd      *exec.Cmd
	air, ctl string
}

// startHided re-executes this binary as a hided child and waits until
// its /healthz answers 200.
func startHided(seed uint64) (*hidedProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+strconv.FormatUint(seed, 10))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hided: %w", err)
	}
	h := &hidedProc{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if f := strings.Fields(line); err == nil && len(f) == 2 {
		h.air, h.ctl = f[0], f[1]
		err = h.waitHealthy()
	} else if err == nil {
		err = fmt.Errorf("unexpected hided banner %q", line)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("hided: %w", err), h.stop())
	}
	return h, nil
}

// waitHealthy polls /healthz until it answers 200, for up to 10 s.
func (h *hidedProc) waitHealthy() error {
	start := wallNow()
	for {
		resp, err := httpClient.Get("http://" + h.ctl + "/healthz")
		if err == nil {
			code := resp.StatusCode
			//lint:ignore errdrop the status code is all that is read; closing a drained response body has no failure to act on
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		if since(start) > 10*time.Second {
			return fmt.Errorf("/healthz not ready after 10s (last error: %v)", err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// counters reads the daemon's counter snapshot.
func (h *hidedProc) counters() (map[string]int64, error) {
	resp, err := httpClient.Get("http://" + h.ctl + "/v1/counters")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	//lint:ignore errdrop the body has been read in full; a close error cannot change it
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/counters: %s", resp.Status)
	}
	var c map[string]int64
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, fmt.Errorf("/v1/counters: %w", err)
	}
	return c, nil
}

// stop sends SIGTERM (hided drains and exits 0) and waits for the exit.
func (h *hidedProc) stop() error {
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := h.cmd.Wait(); err != nil {
		return fmt.Errorf("hided exit: %w", err)
	}
	return nil
}

// runChurn is the hided-churn workload. Set-up is child exec until
// /healthz answers, repeated around the window like the simulations'
// set-ups; the op is one association cycle and its latency is the
// association time; CPU and resident memory are the daemon's,
// allocation per op the client side's.
func runChurn(cfg runConfig) (result, error) {
	var setups []float64
	var sp speedSampler
	refKernelAlloc() // measured before any other goroutine allocates
	start := func() (*hidedProc, error) {
		t := wallNow()
		h, err := startHided(cfg.seed)
		setups = append(setups, since(t).Seconds())
		return h, err
	}
	// The set-up repetitions around the window start and stop a child
	// each; the child that serves the window is one more.
	startStop := func() error {
		h, err := start()
		if err != nil {
			return err
		}
		return h.stop()
	}
	if err := cfg.setUps(false, &sp, startStop); err != nil {
		return result{}, err
	}
	h, err := start()
	if err != nil {
		return result{}, err
	}
	d := cfg.window()
	if cfg.trace {
		d /= 2
	}
	var macs atomic.Uint32
	w, err := churn(h, cfg, d, churnWorkers, &macs, &sp)
	var l map[string]float64
	var tw window
	if err == nil && cfg.trace {
		l, tw, err = tracedChurn(cfg, h, d, w, &macs, &sp)
	}
	if err = errors.Join(err, h.stop()); err == nil {
		err = cfg.setUps(true, &sp, startStop)
	}
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		l["bench.host_slowdown"] = sp.slowdown()
		return newResult(perLayerMetrics, l, w.attempted+tw.attempted, w.failed+tw.failed, true)
	}
	m := w.endToEnd(sp.slowdown())
	// The cycle rate is paced by the hold, a sleep, not by the host's speed.
	m["ops_per_s"] = ratio(float64(w.attempted), w.elapsed.Seconds())
	m["setup_s"] = ratio(quantile(setups, 0.5), sp.slowdown())
	return newResult(endToEndMetrics, m, w.attempted, w.failed, true)
}

// tracedChurn runs the traced half window against h after the untraced
// half w, and returns its per-layer metrics and cycles.
func tracedChurn(cfg runConfig, h *hidedProc, d time.Duration, w window, macs *atomic.Uint32, sp *speedSampler) (map[string]float64, window, error) {
	l := map[string]float64{"daemon.assoc_ms_p99": quantile(w.lat, 0.99)}
	t := wallNow()
	if _, err := trace.GenerateScenario(trace.Starbucks); err != nil {
		return nil, window{}, err
	}
	l["trace.gen_ms"] = ms(since(t))
	c0, err := h.counters()
	if err != nil {
		return nil, window{}, err
	}
	// The traced pass keeps two connections: one worker churns while an
	// observer client stays associated and samples the beacon cadence.
	var gaps []float64
	var obsErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gaps, obsErr = observeBeacons(h.air, cfg.seed, d)
	}()
	tw, err := churn(h, cfg, d, 1, macs, sp)
	wg.Wait()
	if err = errors.Join(err, obsErr); err != nil {
		return nil, window{}, err
	}
	c1, err := h.counters()
	if err != nil {
		return nil, window{}, err
	}
	cycles := float64(tw.attempted - tw.failed)
	delta := func(k string) float64 { return float64(c1[k] - c0[k]) }
	l["airlink.frames_in_per_client"] = ratio(delta("air_frames_in_total"), cycles)
	l["airlink.frames_out_per_s"] = ratio(delta("air_frames_out_total"), tw.elapsed.Seconds())
	l["ap.assoc_responses_per_client"] = ratio(delta("assoc_responses_total"), cycles)
	l["daemon.evictions"] = delta("evictions_total")
	l["daemon.beacon_gap_ms_p99"] = quantile(gaps, 0.99)
	l["bench.trace_overhead"] = ratio(quantile(tw.lat, 0.5), quantile(w.lat, 0.5))
	return l, tw, nil
}

// churn runs workers closed-loop association cycles against h for d and
// returns their association latencies and the daemon's resident memory
// after each cycle, with the daemon's CPU and the client side's
// allocation over the window. While the workers run, this goroutine
// samples the host's speed every sampleEvery; the reference kernel's
// allocation is taken out of the client side's.
func churn(h *hidedProc, cfg runConfig, d time.Duration, workers int, macs *atomic.Uint32, sp *speedSampler) (window, error) {
	pid := h.cmd.Process.Pid
	runs := sp.runs
	cpu0, err := childCPU(pid)
	if err != nil {
		return window{}, err
	}
	before, err := sampleProc()
	if err != nil {
		return window{}, err
	}
	var attempted atomic.Int64
	per := make([]window, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := wallNow()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(w *window, errp *error) {
			defer wg.Done()
			for cfg.more(start, d, int(attempted.Load())) {
				attempted.Add(1)
				w.attempted++
				lat, err := cycle(h.air, clientMAC(cfg.seed, macs.Add(1)), cfg.seed)
				if err != nil {
					w.failed++
					fmt.Fprintf(os.Stderr, "bench: hided-churn cycle: %v\n", err)
				} else {
					w.lat = append(w.lat, ms(lat))
				}
				rss, err := rssMB(strconv.Itoa(pid))
				if err != nil {
					*errp = err
					return
				}
				w.rss = append(w.rss, rss)
			}
		}(&per[k], &errs[k])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(sampleEvery)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			sp.sample()
		}
	}
	tick.Stop()
	if err := errors.Join(errs...); err != nil {
		return window{}, err
	}
	var w window
	w.elapsed = since(start)
	for _, p := range per {
		w.lat = append(w.lat, p.lat...)
		w.rss = append(w.rss, p.rss...)
		w.attempted += p.attempted
		w.failed += p.failed
	}
	after, err := sampleProc()
	if err != nil {
		return window{}, err
	}
	cpu1, err := childCPU(pid)
	if err != nil {
		return window{}, err
	}
	w.cpu = cpu1 - cpu0
	alloc := after.alloc - before.alloc - uint64(sp.runs-runs)*refKernelAlloc()
	w.allocPerOp = ratio(float64(alloc)/1e6, float64(w.attempted))
	return w, nil
}

// clientMAC is the n-th churn client's address, unique within a run.
func clientMAC(seed uint64, n uint32) dot11.MACAddr {
	return dot11.MACAddr{0x02, 0xbe, byte(seed), byte(n >> 16), byte(n >> 8), byte(n)}
}

// newClient builds a HIDE client listening on 5353 with a dispatch hook
// that stamps the host time at which the station first reports itself
// associated.
func newClient(air string, mac dot11.MACAddr, seed uint64) (*daemon.Client, <-chan time.Time, error) {
	c, err := daemon.NewClient(daemon.ClientConfig{
		Connect: air, Addr: mac, Mode: station.HIDE, Ports: []uint16{5353}, Seed: seed,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, nil, err
	}
	associated := make(chan time.Time, 1)
	stamped := false
	c.Engine().AddHook(func(time.Duration) {
		if !stamped && c.Station().Associated() {
			stamped = true
			associated <- wallNow()
		}
	})
	return c, associated, nil
}

// connect runs c until it associates or assocTimeout passes, returning
// the association latency and a stop function that cancels the client
// and waits for Run to return.
func connect(c *daemon.Client, associated <-chan time.Time) (time.Duration, func() error, error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := wallNow()
	go func() { done <- c.Run(ctx) }()
	stop := func() error {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	}
	timeout := time.NewTimer(assocTimeout)
	defer timeout.Stop()
	select {
	case at := <-associated:
		return at.Sub(start), stop, nil
	case <-timeout.C:
		return 0, nil, errors.Join(fmt.Errorf("not associated within %v", assocTimeout), stop())
	case err := <-done:
		cancel()
		return 0, nil, fmt.Errorf("client stopped before associating: %v", err)
	}
}

// cycle is one association cycle: connect a fresh client, hold, leave
// with a disassociation frame, disconnect.
func cycle(air string, mac dot11.MACAddr, seed uint64) (time.Duration, error) {
	c, associated, err := newClient(air, mac, seed)
	if err != nil {
		return 0, err
	}
	lat, stop, err := connect(c, associated)
	if err != nil {
		return 0, err
	}
	time.Sleep(churnHold)
	leaveErr := c.Do(time.Second, func(time.Duration) { c.Station().Leave(dot11.ReasonStationLeft) })
	return lat, errors.Join(leaveErr, stop())
}

// observeBeacons keeps one client associated for d and returns the gaps
// between the beacons it heard, in ms, sampling the station's
// last-beacon time on its engine every gapPoll.
func observeBeacons(air string, seed uint64, d time.Duration) ([]float64, error) {
	c, associated, err := newClient(air, dot11.MACAddr{0x02, 0xbf, byte(seed), 0, 0, 1}, seed)
	if err != nil {
		return nil, err
	}
	_, stop, err := connect(c, associated)
	if err != nil {
		return nil, err
	}
	var gaps []float64
	var last time.Duration
	seen := false
	start := wallNow()
	for since(start) < d {
		var at time.Duration
		var ok bool
		if err := c.Do(time.Second, func(time.Duration) { at, ok = c.Station().LastBeaconAt() }); err != nil {
			return nil, errors.Join(err, stop())
		}
		if ok && (!seen || at != last) {
			if seen {
				gaps = append(gaps, ms(at-last))
			}
			last, seen = at, true
		}
		time.Sleep(gapPoll)
	}
	return gaps, stop()
}
