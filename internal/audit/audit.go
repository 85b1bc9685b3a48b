// Package audit is the host-wide descriptor-leak auditor: it walks every
// node's resource pools — the substrate's active-socket table, posted
// descriptors, credit counters and eager staging pool, or the kernel
// stack's demultiplexing tables — and reports anything that violates the
// paper's Section 5.3 resource contract ("every descriptor is either
// used or unposted"). The chaos and overload suites run it after every
// scenario: a clean report is the machine-checked form of the paper's
// claim that connection churn and failures leak nothing.
//
// The auditor only observes. It never purges or repairs; callers that
// expect residual control traffic (close messages that raced a cleanup)
// should call each substrate's PurgeStale first, exactly as a real
// teardown path would.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// finding is one invariant violation on one node.
type finding struct {
	// Node is the index of the offending node in the cluster.
	Node int
	// Kind is a short machine-matchable class, e.g. "orphan-descriptor",
	// "credit-bounds", "uq-stale", "closed-conn".
	Kind string
	// Detail is the human-readable description.
	Detail string
}

func (f finding) String() string {
	return fmt.Sprintf("node %d: %s: %s", f.Node, f.Kind, f.Detail)
}

// Report is the result of one audit pass.
type Report struct {
	Findings []finding
}

// Clean reports whether the audit found nothing.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// String renders the report, one finding per line ("clean" when empty).
func (r *Report) String() string {
	if r.Clean() {
		return "audit: clean"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d finding(s)\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Cluster audits every node of c and returns the combined report. Run it
// at quiescence — after the workload's sockets are closed and the event
// queue has drained — since descriptors legitimately held by blocked
// operations would otherwise be reported as orphans.
func Cluster(c *cluster.Cluster) *Report {
	r := &Report{}
	for i, n := range c.Nodes {
		add := func(kind, detail string) {
			r.Findings = append(r.Findings, finding{Node: i, Kind: kind, Detail: detail})
		}
		if n.Sub != nil {
			n.Sub.AuditResources(add)
		}
		if n.Stack != nil {
			n.Stack.AuditResources(add)
		}
	}
	return r
}
