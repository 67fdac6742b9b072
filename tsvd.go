// Package tsvd is the public API of the TSVD thread-safety-violation
// detector, a Go reproduction of "Efficient Scalable Thread-Safety-Violation
// Detection" (SOSP 2019).
//
// Typical use mirrors the paper's deployment: install a Session for the
// test process, run the existing tests against the instrumented collections,
// and collect the violations afterwards.
//
//	func TestMain(m *testing.M) {
//		session, err := tsvd.Install(tsvd.DefaultConfig())
//		if err != nil {
//			log.Fatal(err)
//		}
//		code := m.Run()
//		for _, bug := range session.Bugs() {
//			fmt.Println(bug.First.String())
//		}
//		session.SaveTraps("tsvd-traps.json") // seed the next run (§3.4.6)
//		os.Exit(code)
//	}
//
// Containers created through this package report to the installed session's
// detector; containers created before Install report to a no-op detector and
// cost almost nothing. Installing a second session supersedes (and closes)
// the first: its collected bugs and traps stay readable on its own handle,
// while new containers report to the new session. The package-level
// SaveTrapFile is a thin wrapper over the installed session.
package tsvd

import (
	"repro/internal/collections"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sites"
	"repro/internal/syncx"
	"repro/internal/task"
)

// Config is the complete detector parameter set; see DefaultConfig for the
// paper's defaults.
type Config = config.Config

// Detector is the runtime interface; see the core package for the variants.
type Detector = core.Detector

// Algorithm selects the detection variant.
type Algorithm = config.Algorithm

// Detection variants.
const (
	// TSVD is the paper's detector (§3.4) — the default.
	TSVD = config.AlgoTSVD
	// TSVDHB is the happens-before-analysis variant (§3.5).
	TSVDHB = config.AlgoTSVDHB
	// DynamicRandom injects delays at random call occurrences (§3.2).
	DynamicRandom = config.AlgoDynamicRandom
	// DataCollider samples static program locations uniformly (§3.3).
	DataCollider = config.AlgoStaticRandom
	// Nop disables detection (baseline).
	Nop = config.AlgoNop
)

// Mode selects the production sampling tier in front of the detector
// (docs/SAMPLING.md): how much of the analysis and delay-injection work the
// installed session performs per instrumented call.
type Mode = config.Mode

// Sampling modes.
const (
	// ModeFull runs the complete detector on every call — the default and
	// the zero value.
	ModeFull = config.ModeFull
	// ModeSampled decides admission (Config.SampleProbability) before a call
	// buys its identity, so a rejected call costs a countdown decrement;
	// with Config.OverheadTarget set the probability is steered so that the
	// overhead as the harness measures it — every call's cost, not only
	// every analysis's — meets the target. Red-handed trap catching is never
	// sampled out.
	ModeSampled = config.ModeSampled
	// ModeObserveOnly records near misses and trap decisions but never
	// sleeps a thread — the zero-risk production rollout mode.
	ModeObserveOnly = config.ModeObserveOnly
)

// ParseMode parses a mode name as written in flags and configuration files:
// "full", "sampled" or "observe-only".
func ParseMode(s string) (Mode, error) { return config.ParseMode(s) }

// DefaultConfig returns the paper's default TSVD configuration
// (§5.4: N_nm=5, T_nm=100ms, δ_hb=0.5, k_hb=5, buffer=16, delay=100ms).
func DefaultConfig() Config { return config.Defaults(config.AlgoTSVD) }

// NewDetector builds a standalone detector for cfg. Most callers want
// Install instead.
func NewDetector(cfg Config, opts ...core.Option) (Detector, error) {
	return core.New(cfg, opts...)
}

// --- Interned instrumentation sites ---

// SiteID is the dense handle of an interned instrumentation site; Access
// values carry it instead of API metadata strings, and the detector's
// per-site state is indexed by it. 0 means "unregistered".
type SiteID = ids.SiteID

// Site is one interned site: its location plus the (class, method, write)
// API tuple resolved from the registry at report time.
type Site = sites.Site

// SiteRegistry interns (location, class, method, kind) tuples into dense
// SiteIDs; see internal/sites. Share one registry across detectors (via
// Config.Sites) to keep ids consistent in merged output.
type SiteRegistry = sites.Registry

// NewSiteRegistry returns an empty site registry, for callers that pre-
// register a site table (tsvd-instrument -sites) and share it across
// sessions via Config.Sites.
func NewSiteRegistry() *SiteRegistry { return sites.New() }

// RegisterSite interns one instrumentation site in the installed session's
// registry and returns its dense id, for instrumented code that registers
// its sites up front (e.g. from a tsvd-instrument site table) and then
// passes the SiteID on every access instead of strings. loc is the stable
// location key ("file:line"); registering the same tuple again returns the
// same id. Without an installed session the site lands in the no-op
// detector's registry and the returned id is only meaningful there.
func RegisterSite(loc, class, method string, write bool) SiteID {
	return Default().Sites().Intern(sites.Tuple{Loc: loc, Class: class, Method: method, Write: write})
}

// --- Live metrics (Prometheus exposition) ---

// MetricsRegistry collects counters, gauges and histograms and writes them
// in the Prometheus text exposition format; see internal/metrics.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// DetectorMetrics exports live tsvd_detector_* series for every detector it
// is attached to; attach it via WithDetectorMetrics.
type DetectorMetrics = core.DetectorMetrics

// NewDetectorMetrics registers the detector metric families on reg and
// returns the collector to pass to Install or NewDetector.
func NewDetectorMetrics(reg *MetricsRegistry) *DetectorMetrics {
	return core.NewDetectorMetrics(reg)
}

// WithDetectorMetrics attaches the detector being built to m, so its
// counters appear in m's registry:
//
//	reg := tsvd.NewMetricsRegistry()
//	session, _ := tsvd.Install(cfg, tsvd.WithDetectorMetrics(tsvd.NewDetectorMetrics(reg)))
//	http.Handle("/metrics", ...reg.WritePrometheus...)
func WithDetectorMetrics(m *DetectorMetrics) core.Option {
	return core.WithDetectorMetrics(m)
}

// --- Instrumented containers bound to the installed detector ---

// Dictionary is the instrumented hash map (thread-unsafe by contract).
type Dictionary[K comparable, V any] = collections.Dictionary[K, V]

// List is the instrumented dynamic array.
type List[T comparable] = collections.List[T]

// HashSet is the instrumented set.
type HashSet[T comparable] = collections.HashSet[T]

// Queue is the instrumented FIFO queue.
type Queue[T any] = collections.Queue[T]

// Stack is the instrumented LIFO stack.
type Stack[T any] = collections.Stack[T]

// SortedDictionary is the instrumented ordered map.
type SortedDictionary[K any, V any] = collections.SortedDictionary[K, V]

// LinkedList is the instrumented doubly-linked list.
type LinkedList[T comparable] = collections.LinkedList[T]

// StringBuilder is the instrumented text accumulator.
type StringBuilder = collections.StringBuilder

// Counter is the instrumented scalar counter.
type Counter = collections.Counter

// MultiMap is the instrumented key → value-list map.
type MultiMap[K comparable, V any] = collections.MultiMap[K, V]

// PriorityQueue is the instrumented binary heap.
type PriorityQueue[T any] = collections.PriorityQueue[T]

// SortedSet is the instrumented ordered set.
type SortedSet[T any] = collections.SortedSet[T]

// BitArray is the instrumented fixed-size bit vector.
type BitArray = collections.BitArray

// NewDictionary returns a Dictionary reporting to the installed detector.
func NewDictionary[K comparable, V any]() *Dictionary[K, V] {
	return collections.NewDictionary[K, V](installed())
}

// NewList returns a List reporting to the installed detector.
func NewList[T comparable]() *List[T] {
	return collections.NewList[T](installed())
}

// NewHashSet returns a HashSet reporting to the installed detector.
func NewHashSet[T comparable]() *HashSet[T] {
	return collections.NewHashSet[T](installed())
}

// NewQueue returns a Queue reporting to the installed detector.
func NewQueue[T any]() *Queue[T] {
	return collections.NewQueue[T](installed())
}

// NewStack returns a Stack reporting to the installed detector.
func NewStack[T any]() *Stack[T] {
	return collections.NewStack[T](installed())
}

// NewSortedDictionary returns a SortedDictionary ordered by less.
func NewSortedDictionary[K any, V any](less func(a, b K) bool) *SortedDictionary[K, V] {
	return collections.NewSortedDictionary[K, V](installed(), less)
}

// NewLinkedList returns a LinkedList reporting to the installed detector.
func NewLinkedList[T comparable]() *LinkedList[T] {
	return collections.NewLinkedList[T](installed())
}

// NewStringBuilder returns a StringBuilder reporting to the installed
// detector.
func NewStringBuilder() *StringBuilder {
	return collections.NewStringBuilder(installed())
}

// NewCounter returns a Counter reporting to the installed detector.
func NewCounter() *Counter {
	return collections.NewCounter(installed())
}

// NewMultiMap returns a MultiMap reporting to the installed detector.
func NewMultiMap[K comparable, V any]() *MultiMap[K, V] {
	return collections.NewMultiMap[K, V](installed())
}

// NewPriorityQueue returns a PriorityQueue ordered by less.
func NewPriorityQueue[T any](less func(a, b T) bool) *PriorityQueue[T] {
	return collections.NewPriorityQueue[T](installed(), less)
}

// NewSortedSet returns a SortedSet ordered by less.
func NewSortedSet[T any](less func(a, b T) bool) *SortedSet[T] {
	return collections.NewSortedSet[T](installed(), less)
}

// NewBitArray returns a BitArray of the given size.
func NewBitArray(size int) *BitArray {
	return collections.NewBitArray(installed(), size)
}

// --- Task substrate and monitored locks ---

// Scheduler runs tasks; its fork/join events reach the detector (used by
// the TSVDHB variant; TSVD ignores them).
type Scheduler = task.Scheduler

// Task is an asynchronous unit of work.
type Task[T any] = task.Task[T]

// NewScheduler returns a Scheduler wired to the installed detector with
// TSVD's force-async instrumentation (§4) applied.
func NewScheduler() *Scheduler {
	return task.NewScheduler(installed(), task.WithForceAsync())
}

// Go forks fn as a task on s (TPL's Task.Run).
func Go[T any](s *Scheduler, fn func() T) *Task[T] {
	return task.Run(s, fn)
}

// ForEach applies fn to items with bounded parallelism (Parallel.ForEach).
func ForEach[T any](s *Scheduler, items []T, degree int, fn func(T)) {
	task.ForEach(s, items, degree, fn)
}

// ContinueWith schedules fn after t completes.
func ContinueWith[T, U any](t *Task[T], fn func(T) U) *Task[U] {
	return task.ContinueWith(t, fn)
}

// Mutex is a monitored lock whose events reach the installed detector.
type Mutex = syncx.Mutex

// NewMutex returns a monitored Mutex.
func NewMutex() *Mutex { return syncx.NewMutex(installed()) }
