package obs

// Metrics is the standard metric set of the checker stack, registered
// on one Registry so daemons expose engine and monitor metrics through
// a single endpoint. Engines update the engine section; the monitor
// server updates the monitor section. Fields are never nil after
// NewMetrics.
type Metrics struct {
	reg *Registry

	// Engine section (updated by core/naive/active under the monitor's
	// commit serialization).
	Commits           *Counter      // successful commits
	CommitErrors      *Counter      // rejected or failed commits
	Violations        *CounterVec   // by constraint
	CommitSeconds     *Histogram    // end-to-end Step latency
	ConstraintSeconds *HistogramVec // per-constraint denial evaluation, by constraint
	AuxNodes          *Gauge        // temporal subformulas tracked
	AuxEntries        *Gauge        // bindings currently tracked
	AuxTimestamps     *Gauge        // timestamps stored across bindings
	AuxBytes          *Gauge        // estimated auxiliary footprint

	// Attribution section (updated by the incremental engine's phased
	// commit pipeline; see docs/OBSERVABILITY.md).
	StepPhaseSeconds *HistogramVec // per-phase commit time, by phase (apply/update/check/carry)

	// Shard section (updated by the shard router when sharding is on).
	Shards                 *Gauge        // configured shard count (0 = unsharded)
	ShardCommits           *CounterVec   // per-shard sub-transaction commits, by shard
	ShardCommitSeconds     *HistogramVec // per-shard sub-commit latency, by shard
	ShardOpsRouted         *CounterVec   // tuple operations routed, by shard
	ShardGlobalConstraints *Gauge        // constraints demoted to the global shard
	ShardSkew              *FloatGauge   // max/min shard sub-commit time of the last step

	// Monitor section (updated by the line-protocol server).
	Connections         *Counter   // accepted connections
	ConnectionsActive   *Gauge     // currently open connections
	ConnectionsRejected *Counter   // refused at the max-connections cap
	ProtocolErrors      *Counter   // "error ..." replies sent
	DroppedViolations   *Counter   // subscriber-overflow drops
	LockWaitSeconds     *Histogram // wait for the monitor's commit lock
	BuildInfo           *GaugeVec  // constant 1, by go_version and rev

	// Lint section (updated by daemons that lint their spec at startup).
	LintWarnings *Counter    // Warning-or-worse findings
	LintFindings *CounterVec // all findings, by rule

	// Durability section (updated by the WAL and the checkpointer).
	WALAppends         *Counter   // records journaled
	WALAppendedBytes   *Counter   // framed bytes journaled
	WALFsyncs          *Counter   // fsyncs issued on the log
	WALErrors          *Counter   // failed appends/fsyncs/resets
	WALSizeBytes       *Gauge     // current log size on disk
	Checkpoints        *Counter   // checkpoints written
	CheckpointErrors   *Counter   // failed checkpoint attempts
	CheckpointSeconds  *Histogram // checkpoint wall time
	CheckpointLastUnix *Gauge     // unix time of the last good checkpoint
	ReplayedRecords    *Counter   // WAL records replayed during recovery
	DurabilityDegraded *Gauge     // 1 while journaling runs degraded
	RearmAttempts      *Counter   // durability re-arm attempts
	Rearms             *Counter   // successful durability re-arms
	JournalBacklog     *Gauge     // commits buffered while degraded
}

// NewMetrics registers the standard metric set on r and returns the
// handles. Calling it twice on the same registry returns handles to
// the same underlying metrics.
func NewMetrics(r *Registry) *Metrics {
	return &Metrics{
		reg: r,

		Commits: r.Counter("rtic_commits_total",
			"Committed transactions checked by the engine."),
		CommitErrors: r.Counter("rtic_commit_errors_total",
			"Transactions rejected or failed (bad timestamp, unknown relation, ...)."),
		Violations: r.CounterVec("rtic_violations_total",
			"Constraint violation witnesses reported, by constraint.", "constraint"),
		CommitSeconds: r.Histogram("rtic_commit_duration_seconds",
			"End-to-end latency of one committed transaction (apply, auxiliary update, all constraint checks).", nil),
		ConstraintSeconds: r.HistogramVec("rtic_constraint_check_duration_seconds",
			"Latency of one constraint's denial evaluation, by constraint.", nil, "constraint"),
		AuxNodes: r.Gauge("rtic_aux_nodes",
			"Temporal subformulas tracked by the auxiliary encoding."),
		AuxEntries: r.Gauge("rtic_aux_entries",
			"Bindings currently tracked across auxiliary nodes."),
		AuxTimestamps: r.Gauge("rtic_aux_timestamps",
			"Timestamps stored across all auxiliary bindings."),
		AuxBytes: r.Gauge("rtic_aux_bytes",
			"Estimated auxiliary storage footprint in bytes."),

		StepPhaseSeconds: r.HistogramVec("rtic_step_phase_seconds",
			"Commit time attributed to one pipeline phase, by phase (apply, update, check, carry).", nil, "phase"),

		Shards: r.Gauge("rtic_shards",
			"Configured shard count of the routing layer (0 = unsharded)."),
		ShardCommits: r.CounterVec("rtic_shard_commits_total",
			"Sub-transaction commits applied, by shard.", "shard"),
		ShardCommitSeconds: r.HistogramVec("rtic_shard_commit_duration_seconds",
			"Latency of one shard's sub-transaction commit, by shard.", nil, "shard"),
		ShardOpsRouted: r.CounterVec("rtic_shard_ops_routed_total",
			"Tuple operations routed to each shard by the partition plan.", "shard"),
		ShardGlobalConstraints: r.Gauge("rtic_shard_global_fallback_constraints",
			"Constraints the partitionability analysis demoted to the global shard."),
		ShardSkew: r.FloatGauge("rtic_shard_commit_skew",
			"Max/min per-shard sub-commit time of the last sharded step (1 = perfectly balanced)."),

		Connections: r.Counter("rtic_monitor_connections_total",
			"Connections accepted by the line-protocol server."),
		ConnectionsActive: r.Gauge("rtic_monitor_connections_active",
			"Line-protocol connections currently open."),
		ConnectionsRejected: r.Counter("rtic_monitor_connections_rejected_total",
			"Connections refused because the server was at its max-connections cap."),
		ProtocolErrors: r.Counter("rtic_monitor_protocol_errors_total",
			"Error replies sent over the line protocol."),
		DroppedViolations: r.Counter("rtic_monitor_dropped_violations_total",
			"Violations dropped because a subscriber lagged."),
		LockWaitSeconds: r.Histogram("rtic_commit_lock_wait_seconds",
			"Wait to acquire the monitor's commit lock before a transaction could enter the engine.", nil),
		BuildInfo: r.GaugeVec("rtic_build_info",
			"Build information of the running binary; constant 1.", "go_version", "rev"),

		LintWarnings: r.Counter("rtic_lint_warnings_total",
			"Warning-or-worse constraint-linter findings at spec load."),
		LintFindings: r.CounterVec("rtic_lint_findings_total",
			"Constraint-linter findings at spec load, by rule.", "rule"),

		WALAppends: r.Counter("rtic_wal_appends_total",
			"Transaction records appended to the write-ahead log."),
		WALAppendedBytes: r.Counter("rtic_wal_appended_bytes_total",
			"Framed bytes appended to the write-ahead log."),
		WALFsyncs: r.Counter("rtic_wal_fsyncs_total",
			"Fsyncs issued on the write-ahead log."),
		WALErrors: r.Counter("rtic_wal_errors_total",
			"Write-ahead log operations that failed (append, fsync, reset)."),
		WALSizeBytes: r.Gauge("rtic_wal_size_bytes",
			"Current on-disk size of the write-ahead log."),
		Checkpoints: r.Counter("rtic_checkpoints_total",
			"Checkpoints written and rotated into place."),
		CheckpointErrors: r.Counter("rtic_checkpoint_errors_total",
			"Checkpoint attempts that failed (the previous checkpoint survives)."),
		CheckpointSeconds: r.Histogram("rtic_checkpoint_duration_seconds",
			"Wall time of one checkpoint (snapshot, fsync, rename, WAL reset).", nil),
		CheckpointLastUnix: r.Gauge("rtic_checkpoint_last_unix_seconds",
			"Unix time of the last successful checkpoint (0 = never)."),
		ReplayedRecords: r.Counter("rtic_recovery_replayed_records_total",
			"WAL records replayed into the engine during startup recovery."),
		DurabilityDegraded: r.Gauge("rtic_durability_degraded",
			"1 while the durability manager is degraded (commits acknowledged as non-durable), 0 when journaling."),
		RearmAttempts: r.Counter("rtic_durability_rearm_attempts_total",
			"Attempts by the re-arm loop to restore durability after a failure."),
		Rearms: r.Counter("rtic_durability_rearms_total",
			"Successful durability re-arms (journaling restored after a degraded episode)."),
		JournalBacklog: r.Gauge("rtic_durability_backlog_records",
			"Commits buffered in memory while degraded, awaiting a drain re-arm."),
	}
}

// Registry returns the registry the metrics are registered on — the
// handle an exposition endpoint scrapes.
func (m *Metrics) Registry() *Registry { return m.reg }
