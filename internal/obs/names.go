package obs

// Canonical metric names. Instrumentation sites, the experiment suite, the
// CLIs, and the tests all reference these constants so the collector and the
// paper tables provably read the same series.
const (
	// netsim (per-session; Table 1 round trips and traffic).
	MNetRTTs        = "grt_net_rtts_total"  // mode=blocking|async
	MNetBytes       = "grt_net_bytes_total" // dir=sent|recv
	MNetRetransmits = "grt_net_retransmits_total"
	MNetStallNS     = "grt_net_stall_ns_total" // virtual ns stalled in WaitUntil

	// shim (per-session; Figure 8 and §7.3 counters).
	MShimRegAccesses     = "grt_shim_reg_accesses_total"
	MShimCommits         = "grt_shim_commits_total"                // kind=sync|async
	MShimCommitsByCat    = "grt_shim_commits_by_category_total"    // category=...
	MShimSpeculatedByCat = "grt_shim_speculated_by_category_total" // category=...
	MShimSpecStalls      = "grt_shim_spec_stalls_total"            // taint stalls
	MShimMispredictions  = "grt_shim_mispredictions_total"
	MShimRecoveryNS      = "grt_shim_recovery_ns_total" // rollback cost, virtual ns
	MShimPollLoops       = "grt_shim_poll_loops_total"  // offloaded=true|false
	MShimPollRTTsSaved   = "grt_shim_poll_rtts_saved_total"
	MShimIRQWaits        = "grt_shim_irq_waits_total"

	// record-side memory synchronization (§5; Table 1 MemSync column).
	MSyncBytes    = "grt_memsync_bytes_total"     // dir=to_client|to_cloud (wire)
	MSyncRawBytes = "grt_memsync_raw_bytes_total" // dir=...; pre-compression
	MSyncDumps    = "grt_memsync_dumps_total"     // dir=...

	// record session.
	MRecordJobs            = "grt_record_jobs_total"
	MRecordGuardViolations = "grt_record_guard_violations_total"

	// replay session.
	MReplayEvents       = "grt_replay_events_total" // kind=write|read|poll|irq|dump_to_client|dump_to_cloud
	MReplayVerified     = "grt_replay_verified_reads_total"
	MReplayNondetSkips  = "grt_replay_nondet_skips_total"
	MReplayMismatches   = "grt_replay_mismatches_total"
	MReplayRestoreBytes = "grt_replay_restore_bytes_total"

	// resilience: deterministic fault injection (internal/faultsim) and
	// job-boundary checkpoint/resume (internal/ckpt).
	MNetFaultStallNS  = "grt_net_fault_stall_ns_total" // injected link-fault latency, virtual ns
	MFaultsFired      = "grt_faults_fired_total"       // kind=link_outage|loss_burst|degrade|vm_crash|thermal_throttle|ecc_sbe|ecc_dbe|xid_falloff
	MCkptCheckpoints  = "grt_ckpt_checkpoints_total"
	MCkptBytes        = "grt_ckpt_bytes_total" // sealed checkpoint payload bytes
	MCkptResyncEvents = "grt_ckpt_resync_events_total"
	MResumeBackoff    = "grt_resume_backoff_seconds" // virtual backoff before re-admission
	MShedRetries      = "grt_shed_retries_total"     // admissions retried at a shed hint

	// fleet-shared speculation warm-start: validated commit histories
	// exchanged between services (keyed like the castore cache key).
	MSpecWarmExports = "grt_spec_warm_exports_total" // validated signatures exported
	MSpecWarmImports = "grt_spec_warm_imports_total" // signatures seeded on import

	// ingestion trust boundary: recordings entering the service from
	// untrusted storage or transit (bounded decode + structural audit).
	MIngestRecordings = "grt_ingest_recordings_total"   // outcome=accepted|rejected
	MIngestRejects    = "grt_ingest_rejects_total"      // reason=bad_recording|audit|...
	MIngestQuarantine = "grt_ingest_quarantine_entries" // gauge: retained quarantine entries

	// content-addressed recording store (internal/castore) and the
	// cache-first admission path in front of it.
	MCacheLookups   = "grt_cache_lookups_total"    // result=hit|miss; tier=memory|disk on hits
	MCacheFills     = "grt_cache_fills_total"      // recordings published into the store
	MCacheCoalesced = "grt_cache_coalesced_total"  // requests that waited on another's record
	MCacheRejects   = "grt_cache_rejects_total"    // reason=quarantined|seal|decode|too_large
	MCacheEvictions = "grt_cache_evictions_total"  // LRU evictions from the memory tier
	MCacheDiskLoads = "grt_cache_disk_loads_total" // outcome=ok|miss|reject
	MCacheKeys      = "grt_cache_keys_total"       // distinct cache keys ever admitted (monotonic)
	MCacheEntries   = "grt_cache_entries"          // gauge: memory-tier entries
	MCacheBytes     = "grt_cache_bytes"            // gauge: memory-tier payload bytes

	// admission pool partitions (cloud.Pool): per-partition admission.
	MShardRequests = "grt_shard_requests_total" // shard=N
	MShardShed     = "grt_shard_shed_total"     // shard=N; typed ErrShedding rejections

	// per-device GPU health (cloud device registry; the Navarch health-event
	// vocabulary folded into the fleet view). Every series carries a
	// device=<id> label so grt-health/1 reports and grtdiag health can
	// render one row per physical GPU.
	MDeviceThrottleNS = "grt_device_throttle_ns_total" // virtual ns spent thermally throttled
	MDeviceECCErrors  = "grt_device_ecc_errors_total"  // kind=sbe|dbe
	MDeviceFallOffs   = "grt_device_falloffs_total"    // XID-79-style bus fall-offs (terminal)
	MDeviceMigrations = "grt_device_migrations_total"  // sessions migrated OFF this device
	MDeviceDegraded   = "grt_device_degraded"          // gauge: 1 while health-degraded
	MDeviceDead       = "grt_device_dead"              // gauge: 1 once fallen off the bus

	// flight-recorder event kinds (FlightEvent.Kind). Stable tokens: they
	// appear in JSONL exports, diagnostic bundles, and grtdiag filters.
	FKAdmission     = "admission"
	FKSync          = "sync"
	FKSpecCommit    = "spec_commit"
	FKSpecMiss      = "spec_miss"
	FKFault         = "fault"
	FKResync        = "resync"
	FKCheckpoint    = "checkpoint"
	FKResume        = "resume"
	FKIngestReject  = "ingest_reject"
	FKReplay        = "replay"
	FKBundle        = "bundle"
	FKCacheHit      = "cache_hit"
	FKCacheMiss     = "cache_miss"
	FKCacheCoalesce = "cache_coalesce"
	FKShardShed     = "shard_shed"
	FKSpecWarm      = "spec_warm"
	FKHealthEvent   = "health_event"   // a device health fault fired (thermal/ECC/fall-off)
	FKHealthMigrate = "health_migrate" // a session moved to a different device's VM

	// fleet (service-owned registry; multi-tenant view).
	MFleetActiveVMs      = "grt_fleet_active_vms"       // gauge
	MFleetQueueDepth     = "grt_fleet_queue_depth"      // gauge
	MFleetAdmissions     = "grt_fleet_admissions_total" // outcome=immediate|queued|rejected|abandoned|launch_failed
	MFleetAdmissionWait  = "grt_fleet_admission_wait_seconds"
	MFleetSessions       = "grt_fleet_sessions_total"        // completed recording sessions
	MFleetHistoryLookups = "grt_fleet_history_lookups_total" // result=hit|miss
	MFleetVMCrashes      = "grt_fleet_vm_crashes_total"      // sessions torn down by a crash
	MFleetResumes        = "grt_fleet_resumes_total"         // outcome=resumed|gave_up
)
