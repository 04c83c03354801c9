package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twl"
	"twl/perfbench/spans"
)

const (
	serveWorkers = 2
	// serveCkptEvery is the daemon's checkpoint cadence in demand writes.
	// Each checkpoint is an fsync under the checkout (~0.7 ms), so it is
	// long: the longer campaign cells write checkpoints, and the shortest
	// (NOWL under repeat, a few hundred demand writes) write none.
	serveCkptEvery = 16384
	// hitSamples single-cell resubmissions leave at least minTail samples
	// beyond the reported p95.
	hitSamples = 240
	// hitPoll is the fixed status-poll interval of the single-cell phase;
	// bigPoll that of the two campaign jobs.
	hitPoll = 500 * time.Microsecond
	bigPoll = 20 * time.Millisecond
	// healthPoll is the boot probe's interval, fine against a boot of a few
	// milliseconds; serveBoots is how many boots set-up times, more than the
	// other workloads' set-ups because one boot is that short.
	healthPoll = 100 * time.Microsecond
	serveBoots = 15
	// serveDeadline bounds the timed phase, so a wedged daemon fails the
	// run instead of hanging it.
	serveDeadline = 150 * time.Second
)

// daemon is one twlsimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan error
	killed bool // the stop signal killed it before its handler was installed
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon boots twlsimd on dataDir and waits until it answers /healthz.
func startDaemon(bin, dataDir string, client *http.Client) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", addr, "-data", dataDir,
		"-workers", strconv.Itoa(serveWorkers), "-checkpoint-every", strconv.Itoa(serveCkptEvery))
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, however it exits.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start twlsimd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("twlsimd exited during boot (%v): %s", err, d.stderr.String())
		case <-time.After(healthPoll):
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, fmt.Errorf("twlsimd did not answer /healthz within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain hangs. twlsimd answers /healthz before it installs its signal
// handler, so a daemon stopped right after booting can die of the signal
// instead of draining; it holds no jobs then, so that counts as stopped and
// is recorded in killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				d.killed = true
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("twlsimd: %v: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("twlsimd did not drain within 60s")
	}
}

// svcCell is a cell as GET /jobs/{id} reports it.
type svcCell struct {
	Scheme string `json:"scheme"`
	Source string `json:"source"`
	Seed   uint64 `json:"seed"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Result *struct {
		result
		Normalized float64 `json:"normalized_lifetime"`
	} `json:"result"`
}

func (c svcCell) name() string { return fmt.Sprintf("%s/%s/seed=%d", c.Scheme, c.Source, c.Seed) }

func (c svcCell) outcome() result {
	r := c.Result.result
	r.Normalized = c.Result.Normalized
	return r
}

type svcJob struct {
	ID     string    `json:"id"`
	Status string    `json:"status"`
	Cells  []svcCell `json:"cells"`
}

// svcClient is the benchmark's one client connection to the daemon. Every
// request is timed; a failed request is counted in the run's tally.
type svcClient struct {
	http     *http.Client
	base     string
	tally    *tally
	deadline time.Time // the timed phase gives up after this
}

// do sends one request and decodes a JSON reply into out.
func (c *svcClient) do(method, path string, body any, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.tally.fail(method+" "+path, err)
		return 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if err == nil && out != nil {
		if s, ok := out.(*string); ok {
			*s = string(b)
		} else {
			err = json.Unmarshal(b, out)
		}
	}
	if err != nil {
		c.tally.fail(method+" "+path, err)
	}
	return d, err
}

// submit posts a job and returns its id.
func (c *svcClient) submit(spec map[string]any) (string, time.Duration, error) {
	var resp struct {
		ID string `json:"id"`
	}
	d, err := c.do("POST", "/jobs", spec, &resp)
	return resp.ID, d, err
}

// waitList polls the job list until the job leaves the running state and
// returns its final status.
func (c *svcClient) waitList(id string) (string, error) {
	for {
		var list struct {
			Jobs []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"jobs"`
		}
		if _, err := c.do("GET", "/jobs", nil, &list); err == nil {
			for _, j := range list.Jobs {
				if j.ID == id && j.Status != "running" {
					return j.Status, nil
				}
			}
		}
		if time.Now().After(c.deadline) {
			return "", fmt.Errorf("job %s not done by the deadline", id)
		}
		time.Sleep(bigPoll)
	}
}

// campaign is the service workload's grid: every configured scheme and
// attack over cfg.Seeds system seeds derived from the run's seed.
type campaign struct {
	sys     twl.SystemConfig
	schemes []string
	attacks []string
	seeds   []uint64
}

func newCampaign(cfg workloadConfig, seed uint64) campaign {
	c := campaign{sys: cfg.System, schemes: cfg.Schemes, attacks: cfg.Attacks}
	for i := 0; i < cfg.Seeds; i++ {
		c.seeds = append(c.seeds, seed*1000+uint64(i))
	}
	return c
}

// spec is the job for the given axes, with the system shape taken from the
// decoded configuration.
func (c campaign) spec(schemes, attacks []string, seeds []uint64) map[string]any {
	return map[string]any{
		"schemes":        schemes,
		"attacks":        attacks,
		"seeds":          seeds,
		"pages":          c.sys.Pages,
		"page_size":      c.sys.PageSize,
		"mean_endurance": c.sys.MeanEndurance,
		"sigma_fraction": c.sys.SigmaFraction,
	}
}

// single is the i-th single-cell resubmission: the campaign's cells in
// scheme-fastest order.
func (c campaign) single(i int) (scheme, attack string, seed uint64) {
	ns, na := len(c.schemes), len(c.attacks)
	return c.schemes[i%ns], c.attacks[(i/ns)%na], c.seeds[(i/(ns*na))%len(c.seeds)]
}

// directCell is one campaign cell run through the facade in this process.
type directCell struct {
	name   string
	scheme string
	mode   twl.AttackMode
	sys    twl.SystemConfig
}

func (c campaign) direct() ([]directCell, error) {
	var out []directCell
	for _, s := range c.schemes {
		for _, a := range c.attacks {
			mode, err := twl.ParseAttackMode(a)
			if err != nil {
				return nil, err
			}
			for _, seed := range c.seeds {
				out = append(out, directCell{
					name:   fmt.Sprintf("%s/attack:%s/seed=%d", s, a, seed),
					scheme: s, mode: mode, sys: seeded(c.sys, seed),
				})
			}
		}
	}
	return out, nil
}

// promValue reads one sample of the Prometheus exposition by its exact
// series name (with labels).
func promValue(text, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func runService(o options, r *report) error {
	cfg, err := loadConfig(o.workload)
	if err != nil {
		return err
	}
	camp := newCampaign(cfg, o.seed)
	dataDir, err := filepath.Abs(filepath.Join(o.state, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	client := &http.Client{Timeout: 5 * time.Minute}
	c := &svcClient{http: client, tally: &r.tally}

	// Set-up is booting the daemon, from exec to its first healthy reply; it
	// is repeated on the same state directory, and the last daemon serves
	// the run. Stopping the previous one is not part of a boot.
	var d *daemon
	boots := make([]float64, 0, serveBoots)
	killed := 0
	for len(boots) < serveBoots {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			if d.killed {
				killed++
			}
		}
		start := time.Now()
		if d, err = startDaemon(o.twlsimd, dataDir, client); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		boots = append(boots, time.Since(start).Seconds())
	}
	r.set("setup_s", median(boots))
	if killed > 0 {
		r.note("%d of %d set-up daemons died of SIGTERM before installing their signal handler", killed, serveBoots-1)
	}
	c.base = d.base
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()

	all := camp.spec(camp.schemes, camp.attacks, camp.seeds)
	h := startHost()
	c.deadline = time.Now().Add(serveDeadline)
	// phase submits the whole campaign and waits for it, returning the job,
	// its wall time and the daemon's user CPU time over it.
	phase := func() (string, float64, time.Duration, error) {
		start := time.Now()
		cpu0, err := procUserCPU(d.cmd.Process.Pid)
		if err != nil {
			return "", 0, 0, err
		}
		id, _, err := c.submit(all)
		if err != nil {
			return "", 0, 0, err
		}
		status, err := c.waitList(id)
		if err == nil && status != "done" {
			err = fmt.Errorf("job %s ended %s", id, status)
		}
		wall := time.Since(start).Seconds()
		cpu1, cerr := procUserCPU(d.cmd.Process.Pid)
		if err == nil {
			err = cerr
		}
		return id, wall, cpu1 - cpu0, err
	}
	coldID, coldS, coldCPU, err := phase()
	if err != nil {
		return err
	}
	warmID, warmS, _, err := phase()
	if err != nil {
		return err
	}

	var latency, submitMS, statusMS []float64
	singles := make([]svcJob, hitSamples)
	for i := range singles {
		s, a, seed := camp.single(i)
		start := time.Now()
		id, took, err := c.submit(camp.spec([]string{s}, []string{a}, []uint64{seed}))
		if err != nil {
			return err
		}
		submitMS = append(submitMS, float64(took.Nanoseconds())/1e6)
		for {
			took, err := c.do("GET", "/jobs/"+id, nil, &singles[i])
			if err == nil {
				statusMS = append(statusMS, float64(took.Nanoseconds())/1e6)
				if singles[i].Status != "running" {
					break
				}
			}
			if time.Now().After(c.deadline) {
				return fmt.Errorf("single-cell job %s not done by the deadline", id)
			}
			time.Sleep(hitPoll)
		}
		latency = append(latency, float64(time.Since(start).Nanoseconds())/1e6)
	}
	h.finish()

	var cold, warm svcJob
	var metrics string
	if _, err := c.do("GET", "/jobs/"+coldID, nil, &cold); err != nil {
		return err
	}
	if _, err := c.do("GET", "/jobs/"+warmID, nil, &warm); err != nil {
		return err
	}
	if _, err := c.do("GET", "/metrics", nil, &metrics); err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	jobFile, err := os.Stat(filepath.Join(dataDir, "jobs", coldID+".json"))
	if err != nil {
		return err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}

	// Correctness: every cell the service settled must equal the same cell
	// run here through the facade, and the committed result for the seed.
	cells, err := camp.direct()
	if err != nil {
		return err
	}
	exp, err := loadExpectations(o.workload)
	if err != nil {
		return err
	}
	want := map[string]result{}
	wrong := map[string]error{} // direct results that differ from the committed ones
	var writes uint64
	start := time.Now()
	for _, dc := range cells {
		res, err := twl.RunAttackCell(dc.sys, dc.scheme, dc.mode, twl.LifetimeConfig{})
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", dc.name, err)
		}
		want[dc.name] = fromLifetime(res)
		writes += res.DemandWrites
		if _, err := exp.check(o.seed, dc.name, want[dc.name]); err != nil {
			wrong[dc.name] = err
		}
	}
	simMS := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(len(cells))
	check := func(j svcJob, n int) {
		if len(j.Cells) != n {
			r.tally.fail("job "+j.ID, fmt.Errorf("%d cells, want %d", len(j.Cells), n))
		}
		for _, sc := range j.Cells {
			switch w, ok := want[sc.name()]; {
			case sc.Status != "done" || sc.Result == nil:
				r.tally.fail(sc.name(), fmt.Errorf("status %s: %s", sc.Status, sc.Error))
			case !ok:
				r.tally.fail(sc.name(), fmt.Errorf("not a campaign cell"))
			case sc.outcome() != w:
				r.tally.mismatch(sc.name(), fmt.Errorf("service result %+v, direct %+v", sc.outcome(), w))
			case wrong[sc.name()] != nil:
				r.tally.mismatch(sc.name(), wrong[sc.name()])
			default:
				r.tally.ok()
			}
		}
	}
	check(cold, len(cells))
	check(warm, len(cells))
	for _, j := range singles {
		check(j, 1)
	}

	n := float64(len(cells))
	r.set("ns_per_write", coldS*1e9/float64(writes))
	r.set("user_ns_per_write", float64(coldCPU)/float64(writes))
	r.set("cells_per_s", n/coldS)
	r.set("peak_rss_mb", rss)
	r.set("serve.hit_cells_per_s", n/warmS)
	if err := checkTail(len(latency), 0.95); err != nil {
		return err
	}
	r.set("serve.hit_p50_ms", median(latency))
	r.set("serve.hit_p95_ms", percentile(latency, 0.95))
	r.set("serve.submit_ms", median(submitMS))
	r.set("serve.status_ms", median(statusMS))
	r.set("serve.sim_ms_per_cell", simMS)
	r.set("serve.overhead_ms_per_cell", coldS*1e3*serveWorkers/n-simMS)
	r.set("serve.hit_ms_per_cell", warmS*1e3/n)
	r.set("serve.job_file_kb", float64(jobFile.Size())/1024)
	r.set("serve.cells_simulated", promValue(metrics, `twl_serve_cells_total{outcome="simulated"}`))
	r.set("serve.cells_cached", promValue(metrics, `twl_serve_cells_total{outcome="cached"}`))
	r.set("cache.hits", promValue(metrics, "twl_serve_cache_hits_total"))
	r.set("cache.misses", promValue(metrics, "twl_serve_cache_misses_total"))
	r.host(h)
	r.note("%s: %d cells of %d pages, %d workers, checkpoint every %d writes; cold %.3fs, warm %.3fs; "+
		"%d single-cell hits polled every %v; %d daemon boots",
		o.workload, len(cells), camp.sys.Pages, serveWorkers, serveCkptEvery, coldS, warmS,
		len(latency), hitPoll, len(boots))
	if o.traced {
		return traceService(o, r, camp, cells, cold, dataDir)
	}
	return nil
}

// traceService adds the layers the HTTP timings cannot separate: the result
// cache and checkpoint I/O timed directly, and the campaign's cells run
// under the span wrappers.
func traceService(o options, r *report, camp campaign, cells []directCell, cold svcJob, dataDir string) error {
	keys := make([]string, 0, len(cold.Cells))
	for _, c := range cold.Cells {
		keys = append(keys, c.Key)
	}
	getUS, payloads, err := spans.CacheGets(filepath.Join(dataDir, "cache"), keys)
	if err != nil {
		return err
	}
	probe := filepath.Join(o.state, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(probe)
	putUS, err := spans.CachePuts(filepath.Join(probe, "cache"), keys, payloads)
	if err != nil {
		return err
	}
	r.set("cache.get_us", median(getUS))
	r.set("cache.put_us", median(putUS))

	// Checkpoint I/O: every 50th campaign cell, checkpointed at the
	// service's cadence; the result must not change.
	var ckptSec, ckptBytes float64
	var ckpts uint64
	for i := 0; i < len(cells); i += 50 {
		dc := cells[i]
		reg := twl.NewMetrics()
		res, err := twl.RunAttackCell(dc.sys, dc.scheme, dc.mode, twl.LifetimeConfig{
			Metrics:    reg,
			Checkpoint: &twl.CheckpointConfig{Path: filepath.Join(probe, "cell.ckpt"), Every: serveCkptEvery},
		})
		if err != nil {
			return fmt.Errorf("checkpointed run of %s: %w", dc.name, err)
		}
		secs, count, bytes := spans.Checkpoints(reg)
		ckptSec += secs
		ckpts += count
		ckptBytes += bytes
		direct, err := twl.RunAttackCell(dc.sys, dc.scheme, dc.mode, twl.LifetimeConfig{})
		if err == nil && res != direct {
			err = mismatchf("checkpointed result differs from the plain run")
		}
		r.tally.record(dc.name+" checkpointed", err)
	}
	if ckpts > 0 {
		r.set("snap.ckpt_ms", ckptSec*1e3/float64(ckpts))
		r.set("snap.ckpt_kb", ckptBytes/float64((len(cells)+49)/50)/1024)
	}

	var traced []cellSpans
	for _, dc := range cells {
		gc := gridCell{
			name: dc.name,
			run: func(sys twl.SystemConfig, lc twl.LifetimeConfig) (twl.LifetimeResult, error) {
				return twl.RunAttackCell(sys, dc.scheme, dc.mode, lc)
			},
			build: func(sys twl.SystemConfig) (spans.Cell, error) { return spans.AttackCell(sys, dc.scheme, dc.mode) },
		}
		sp, _, err := traceCell(gc, dc.sys)
		if err != nil {
			r.tally.record(dc.name+" traced", err)
			continue
		}
		traced = append(traced, sp)
	}
	layerTotals(r, traced)
	path, err := writeSpans(o, traced)
	if err != nil {
		return err
	}
	r.note("%s traced: %d cache gets, %d puts, %d checkpoints; spans of %d direct cells in %s",
		o.workload, len(getUS), len(putUS), ckpts, len(traced), path)
	return nil
}
