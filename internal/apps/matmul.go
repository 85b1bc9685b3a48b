package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Matrix multiplication (Section 7.5): a 4-node cluster computes C = A*B
// for N x N matrices. The master partitions A's rows among the workers
// (keeping a share for itself), ships each worker its row block plus all
// of B, computes its own share, and gathers the partial results — using
// select() to discover which worker's socket has data, exactly the usage
// the paper calls out.

// matmulHeaderBytes frames each transfer direction (dimensions).
const matmulHeaderBytes = 16

// matmulHeader describes the work unit.
type matmulHeader struct {
	N    int
	Rows int
}

// setNoDelay disables Nagle on TCP transports; message-passing codes do
// this so partial tail segments are not held for the delayed-ack timer.
func setNoDelay(c sock.Conn) {
	if nd, ok := c.(interface{ SetNoDelay(bool) }); ok {
		nd.SetNoDelay(true)
	}
}

// MatmulResult reports one run.
type MatmulResult struct {
	N       int
	Elapsed sim.Duration
	Err     error
}

// matmulWorker serves one work unit: receive B and a block of A rows,
// compute, return the C block.
func matmulWorker(p *sim.Proc, node *cluster.Node, master sock.Addr, port int) error {
	c, err := node.Net.Dial(p, master, port)
	if err != nil {
		return err
	}
	defer c.Close(p)
	setNoDelay(c)
	_, objs, err := sock.ReadFull(p, c, matmulHeaderBytes)
	if err != nil || len(objs) == 0 {
		return fmt.Errorf("matmul: worker header: %v", err)
	}
	hdr, ok := objs[0].(*matmulHeader)
	if !ok {
		return fmt.Errorf("matmul: malformed header")
	}
	// A block (Rows x N) plus all of B (N x N), 8 bytes per element.
	inBytes := (hdr.Rows*hdr.N + hdr.N*hdr.N) * 8
	if _, _, err := sock.ReadFull(p, c, inBytes); err != nil {
		return err
	}
	// 2*N FLOPs per output element.
	node.Host.Compute(p, int64(2*hdr.Rows*hdr.N*hdr.N))
	outBytes := hdr.Rows * hdr.N * 8
	if err := sock.WriteFull(p, c, matmulHeaderBytes, hdr); err != nil {
		return err
	}
	return sock.WriteFull(p, c, outBytes, "c-block")
}

// matmulMaster distributes the work and gathers results with select().
func matmulMaster(p *sim.Proc, node *cluster.Node, port, n, workers int) (sim.Duration, error) {
	l, err := node.Net.Listen(p, port, workers)
	if err != nil {
		return 0, err
	}
	defer l.Close(p)
	conns := make([]sock.Conn, workers)
	for i := range conns {
		c, err := l.Accept(p)
		if err != nil {
			return 0, err
		}
		setNoDelay(c)
		conns[i] = c
	}
	start := p.Now()
	// Partition rows across workers + self.
	parts := workers + 1
	rowsEach := n / parts
	selfRows := n - rowsEach*workers
	for _, c := range conns {
		hdr := &matmulHeader{N: n, Rows: rowsEach}
		if err := sock.WriteFull(p, c, matmulHeaderBytes, hdr); err != nil {
			return 0, err
		}
		inBytes := (rowsEach*n + n*n) * 8
		if err := sock.WriteFull(p, c, inBytes, "a-block+b"); err != nil {
			return 0, err
		}
	}
	// Master's own share overlaps with the workers'.
	node.Host.Compute(p, int64(2*selfRows*n*n))
	// Gather with the readiness poller: multiplexing the workers' result
	// sockets is the paper's stated reason for needing select() support
	// in the substrate. The master is the poller's one waiter. Each
	// worker sends exactly one result, so its socket is consumed whole
	// on its first readable event and then deregistered — the
	// edge-triggered drain obligation is discharged by reading the full
	// result.
	po := sock.NewPoller(p.Engine(), "matmul.gather")
	defer po.Close()
	node.Tel.ReplaceSource("poller", po.TelemetryStats)
	gather := po.Waiter("gather")
	for idx, c := range conns {
		cp, ok := c.(sock.Pollable)
		if !ok {
			return 0, fmt.Errorf("matmul: connection %T is not pollable", c)
		}
		po.Register(cp, sock.PollIn|sock.PollErr, idx)
	}
	for pending := workers; pending > 0; pending-- {
		ev, _ := gather.Wait(p, -1)
		idx := ev.Data.(int)
		c := conns[idx]
		_, objs, err := sock.ReadFull(p, c, matmulHeaderBytes)
		if err != nil || len(objs) == 0 {
			return 0, fmt.Errorf("matmul: result header from %d: %v", idx, err)
		}
		hdr := objs[0].(*matmulHeader)
		if _, _, err := sock.ReadFull(p, c, hdr.Rows*hdr.N*8); err != nil {
			return 0, err
		}
		po.Deregister(ev.Item)
	}
	elapsed := p.Now().Sub(start)
	for _, c := range conns {
		c.Close(p)
	}
	return elapsed, nil
}

// RunMatmul runs one N x N multiplication on the cluster (node 0 is the
// master; the paper uses 4 nodes).
func RunMatmul(c *cluster.Cluster, n int) MatmulResult {
	const port = 9000
	workers := len(c.Nodes) - 1
	if workers < 1 {
		return MatmulResult{N: n, Err: fmt.Errorf("matmul: need at least 2 nodes")}
	}
	var elapsed sim.Duration
	var masterErr error
	workerErrs := make([]error, workers)
	c.Eng.Spawn("matmul-master", func(p *sim.Proc) {
		elapsed, masterErr = matmulMaster(p, c.Nodes[0], port, n, workers)
	})
	for i := 0; i < workers; i++ {
		i := i
		c.Eng.Spawn("matmul-worker", func(p *sim.Proc) {
			p.Sleep(sim.Duration(20+10*i) * sim.Microsecond)
			workerErrs[i] = matmulWorker(p, c.Nodes[i+1], c.Addr(0), port)
		})
	}
	c.Run(cluster.RunLimit)
	res := MatmulResult{N: n, Elapsed: elapsed, Err: masterErr}
	for _, e := range workerErrs {
		if res.Err == nil && e != nil {
			res.Err = e
		}
	}
	return res
}
