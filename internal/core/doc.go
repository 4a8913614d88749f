// Package core implements the paper's primary contribution: decomposing a
// full-featured OS into five incremental, self-contained prototypes, each
// mapped to the target applications that motivate its mechanisms (Table 1).
//
// core.NewSystem assembles the machine + kernel + userland for a chosen
// prototype, enabling exactly that prototype's feature set; the app
// registry records which kernel features each app needs, so Table 1's
// "which app runs where" matrix is checked by the system, not asserted in
// prose.
//
// Options is the tuning surface experiments and benchmarks share: the
// prototype and kernel mode (proto/xv6/prod baselines for Fig 9), core
// count, memory, framebuffer geometry and SD asset scale. The storage
// stack (buffer caches, request queues) runs on its package defaults;
// Mode is the only switch that changes it.
package core
