package pvfs

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/obs"
)

// Config is the file-system cost model. The defaults in FeynmanLike are
// tuned so that end-to-end S3aSim runs land in the paper's regime (I/O
// dominated past ~32 processes); every knob is overridable.
type Config struct {
	NumServers int   // I/O servers (paper: 16)
	StripSize  int64 // bytes per strip, round-robin (paper: 64 KB)

	// Per-server request service model (one FCFS queue per server):
	// cost = RequestOverhead + segments·SegmentOverhead + bytes/ServiceBandwidth.
	RequestOverhead  des.Time
	SegmentOverhead  des.Time
	ServiceBandwidth float64 // bytes/sec storage path per server

	// Sync (flush) model: a client sync costs, at each server,
	// SyncBase + dirtyBytes/SyncBandwidth, where dirtyBytes is the data
	// written to that server since its previous flush completed.
	SyncBase      des.Time
	SyncBandwidth float64

	MetaOverhead des.Time // per metadata operation (create/open)

	// Client-side issuance model: per pvfs operation the client pays
	// IssueOverhead once, plus PerServerIssue for each server request the
	// operation fans out to (request construction, serialized on the CPU).
	IssueOverhead  des.Time
	PerServerIssue des.Time

	NetLatency des.Time // client <-> server one-way wire latency

	// LockGranularity, when positive, emulates a lock-based file system
	// (GPFS-like byte-range/block locking) instead of PVFS2's lock-free
	// semantics: every write request serializes against other writes
	// touching the same lock unit, even when byte ranges do not overlap
	// (false sharing). The paper's §3.1 points out that such serialization
	// "may unnecessarily serialize writes in the I/O phase" for S3aSim's
	// interleaved, non-overlapping pattern; 0 (the default, PVFS2) disables
	// locking entirely.
	LockGranularity int64
	// LockAcquireCost is the distributed-lock-manager cost per lock unit
	// acquired (token/revocation round trip); only used when
	// LockGranularity > 0.
	LockAcquireCost des.Time

	CaptureData bool // store real bytes for verification
}

// FeynmanLike returns a cost model shaped after the paper's test
// environment: 16 PVFS2 servers, 64 KB strips, 2006-era server request
// costs. See DESIGN.md §7 for the calibration rationale.
func FeynmanLike() Config {
	return Config{
		NumServers:       16,
		StripSize:        64 * 1024,
		RequestOverhead:  7 * des.Millisecond,
		SegmentOverhead:  7 * des.Millisecond,
		ServiceBandwidth: 50e6,
		SyncBase:         5 * des.Millisecond,
		SyncBandwidth:    80e6,
		MetaOverhead:     1000 * des.Microsecond,
		IssueOverhead:    150 * des.Microsecond,
		PerServerIssue:   60 * des.Microsecond,
		NetLatency:       12 * des.Microsecond,
	}
}

// Port is the client's attachment to the storage network: the NIC resources
// of the node issuing the operation plus the NIC bandwidth. The mpi layer's
// node NICs are passed here so compute traffic and storage traffic contend
// for the same interfaces, as they did on Feynman.
type Port struct {
	Send      *des.Resource
	Recv      *des.Resource
	Bandwidth float64
}

// server is one I/O daemon: a FCFS service queue plus flush accounting.
type server struct {
	res      *des.Resource
	dirty    int64
	written  int64
	requests uint64
	segments uint64
	syncs    uint64
}

// FileSystem is a simulated PVFS2 deployment.
type FileSystem struct {
	sim     *des.Simulation
	cfg     Config
	servers []*server
	meta    *des.Resource
	files   map[string]*File

	traceOn   bool
	trace     []RequestRecord
	metrics   *obs.Registry
	faults    ServerFaults
	causal    *causal.Recorder
	dropWrite func(off, n int64) bool

	// Request-path scratch, reused by every operation (see io.go).
	reqPool  []*serverRequest // retired request records
	byServer []*serverRequest // groupRequests' per-server slots, all nil between calls
	pieces   []serverPiece    // splitByServer's result
}

// ServerFaults scales per-server request service time — the fault layer's
// degraded-bandwidth window. ServiceFactor is consulted when a request is
// submitted to a server queue (deterministic DES order); 1 means healthy.
type ServerFaults interface {
	ServiceFactor(server int) float64
}

// New creates a file system with the given configuration.
func New(sim *des.Simulation, cfg Config) *FileSystem {
	if cfg.NumServers < 1 {
		panic("pvfs: need at least one server")
	}
	if cfg.StripSize < 1 {
		panic("pvfs: strip size must be positive")
	}
	fs := &FileSystem{sim: sim, cfg: cfg, files: make(map[string]*File),
		byServer: make([]*serverRequest, cfg.NumServers)}
	for i := 0; i < cfg.NumServers; i++ {
		fs.servers = append(fs.servers, &server{
			res: sim.NewResource(fmt.Sprintf("pvfs.server%d", i), 1),
		})
	}
	fs.meta = sim.NewResource("pvfs.meta", 1)
	return fs
}

// Config returns the cost model in use.
func (fs *FileSystem) Config() Config { return fs.cfg }

// SetFaults attaches a per-server fault model (degradation windows). Nil
// (the default) means every server serves at full speed.
func (fs *FileSystem) SetFaults(f ServerFaults) { fs.faults = f }

// ScheduleOutage takes server offline for [at, at+dur): an opaque job
// occupies its FCFS queue for the window, so requests in flight when the
// outage begins finish first and everything arriving during the window
// waits it out — a crashed-and-rebooting I/O daemon whose clients block
// rather than error (PVFS2 retries transparently). Outages are counted in
// the metrics registry under "pvfs.outages".
func (fs *FileSystem) ScheduleOutage(server int, at, dur des.Time) {
	if server < 0 || server >= len(fs.servers) {
		panic(fmt.Sprintf("pvfs: outage for unknown server %d", server))
	}
	if dur <= 0 {
		return
	}
	srv := fs.servers[server]
	fs.sim.At(at, func() {
		srv.res.Submit(dur, nil)
		if fs.metrics != nil {
			fs.metrics.Add("pvfs.outages", 1)
		}
	})
}

// SetWriteDropper installs a test-only corruption hook: any write segment
// for which fn returns true is acknowledged and fully accounted (dirty
// bytes, coverage, file size) but its payload is silently discarded — the
// range stores no bytes and reads back as zeroes. This models a silent
// data-loss fault that no offset bookkeeping can see; only content
// verification (readback checksumming) catches it. Nil (the default)
// disables dropping.
func (fs *FileSystem) SetWriteDropper(fn func(off, n int64) bool) { fs.dropWrite = fn }

// SetMetrics attaches a registry; every subsequent server-request completion
// records pvfs.* counters (requests, bytes, syncs) and virtual-time
// histograms (queue wait, service time, request size). Requests complete in
// deterministic DES order, so the resulting snapshot is deterministic too.
func (fs *FileSystem) SetMetrics(r *obs.Registry) { fs.metrics = r }

// SetCausal attaches a happens-before recorder: every client wait inside
// issue() is decomposed into transit → io-queue → io-service → transit along
// the request that finished last. Purely passive; nil disables recording.
func (fs *FileSystem) SetCausal(c *causal.Recorder) { fs.causal = c }

// recordRequest streams one completed server request into the registry.
func (fs *FileSystem) recordRequest(kind string, bytes int64, wait, service des.Time) {
	m := fs.metrics
	if m == nil {
		return
	}
	m.Add("pvfs.requests", 1)
	switch kind {
	case "write":
		m.Add("pvfs.bytes_written", bytes)
	case "read":
		m.Add("pvfs.bytes_read", bytes)
	case "sync":
		m.Add("pvfs.syncs", 1)
	}
	m.ObserveTime("pvfs.queue_wait", wait)
	m.ObserveTime("pvfs.service", service)
	if kind != "sync" {
		m.Observe("pvfs.request_bytes", float64(bytes))
	}
}

// File is a striped file. Writes may come from any client concurrently;
// PVFS2 provides no overlap atomicity, and the extent map records any
// overlapping bytes so tests can assert there were none.
type File struct {
	fs    *FileSystem
	name  string
	size  int64
	data  extentMap
	locks map[int64]*des.Resource // lock-unit serializers (LockGranularity > 0)
	units []int64                 // lockUnits scratch
}

// Create creates (or truncates) a file via the metadata server. Must be
// called from within a des.Proc.
func (fs *FileSystem) Create(p *des.Proc, name string) *File {
	fs.meta.Use(p, fs.cfg.MetaOverhead)
	f := &File{fs: fs, name: name, locks: make(map[int64]*des.Resource)}
	f.data.capture = fs.cfg.CaptureData
	fs.files[name] = f
	return f
}

// Open returns an existing file (metadata round trip), or nil if absent.
func (fs *FileSystem) Open(p *des.Proc, name string) *File {
	fs.meta.Use(p, fs.cfg.MetaOverhead)
	return fs.files[name]
}

// Lookup returns a file without cost, for inspection in tests and reports.
func (fs *FileSystem) Lookup(name string) *File { return fs.files[name] }

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current file size (highest written offset).
func (f *File) Size() int64 { return f.size }

// Coverage returns the number of distinct bytes written so far.
func (f *File) Coverage() int64 { return f.data.coverage() }

// OverlappedBytes returns how many bytes were ever written more than once.
func (f *File) OverlappedBytes() int64 { return f.data.overlapped }

// FullyCovers reports whether every byte of [0, size) has been written.
func (f *File) FullyCovers(size int64) bool { return f.data.covers(size) }

// ReadBack returns captured bytes for [off, off+n), zero-filled in gaps. The
// result may be a read-only view of stored bytes (whenever one stored write
// covers the range): the caller must not modify it, and must copy it first
// to patch it. Later writes to the file do not change it.
func (f *File) ReadBack(off, n int64) []byte { return f.data.read(off, n) }

// Visit calls fn, in file order, with each stored piece of [off, off+n): its
// file offset and an in-place view of its captured bytes, which fn must not
// modify or retain. It returns false, stopping early, if fn does or if any
// byte of the range is a gap (never written, or written without capture);
// an empty range returns true. Unlike ReadBack it never copies, even across
// the boundaries between stored writes.
func (f *File) Visit(off, n int64, fn func(off int64, b []byte) bool) bool {
	return f.data.visit(off, n, fn)
}

// Captures reports whether the file system stores real bytes
// (Config.CaptureData), i.e. whether ReadBack returns meaningful content.
func (f *File) Captures() bool { return f.fs.cfg.CaptureData }

// serverFor returns the server index holding the strip at file offset x.
func (f *File) serverFor(x int64) int {
	return int((x / f.fs.cfg.StripSize) % int64(f.fs.cfg.NumServers))
}

// serverPiece is a run of bytes destined for one server, possibly one of
// many pieces of a client segment that crossed strip boundaries.
type serverPiece struct {
	server int
	seg    Segment
}

// splitByServer cuts segments at strip boundaries and tags each piece with
// its server. The result is the file system's scratch slice, valid until
// the next call.
func (f *File) splitByServer(segs []Segment) []serverPiece {
	strip := f.fs.cfg.StripSize
	pieces := f.fs.pieces
	clear(pieces) // drop the previous call's payload references
	pieces = pieces[:0]
	for _, s := range segs {
		off, n := s.Offset, s.Length
		var dataPos int64
		for n > 0 {
			inStrip := strip - off%strip
			take := min(n, inStrip)
			p := serverPiece{server: f.serverFor(off), seg: Segment{Offset: off, Length: take}}
			if s.Data != nil {
				p.seg.Data = s.Data[dataPos : dataPos+take]
			}
			pieces = append(pieces, p)
			off += take
			dataPos += take
			n -= take
		}
	}
	f.fs.pieces = pieces
	return pieces
}
