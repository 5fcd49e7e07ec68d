//! A store entry's header counts are checked, never trusted for memory:
//! decoding a CRC-valid entry whose header claims 2^24 sessions must
//! not reserve room for them. The test binary's allocator records the
//! largest single request, so a header-sized reservation (2^24 records,
//! gigabytes) fails the test even where the system would have granted
//! it lazily.

use mailval_measure::campaign::{CampaignResult, PhaseTimes};
use mailval_measure::journal::crc32;
use mailval_measure::store::{decode_entry, encode_entry, CampaignKey};
use mailval_measure::QueryLog;
use mailval_simnet::FaultStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest request it served.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; recording a request's size
// allocates nothing.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

#[test]
fn header_session_count_does_not_size_a_reservation() {
    let key = CampaignKey {
        hash: [7; 32],
        label: "x".to_string(),
    };
    let empty = CampaignResult {
        log: QueryLog::default(),
        sessions: Vec::new(),
        events: 0,
        faults: FaultStats::default(),
        shard_stats: Vec::new(),
        partial: false,
        phases: PhaseTimes::default(),
        telemetry: None,
    };
    let mut bytes = encode_entry(&key, &empty);
    // Header frame: magic (8), len (4), crc (4), then the payload: tag
    // (1), key hash (32), label (4 + 1), session count (u64).
    let payload_start = 16;
    let count_at = payload_start + 1 + 32 + 5;
    bytes[count_at..count_at + 8].copy_from_slice(&(1u64 << 24).to_le_bytes());
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = crc32(&bytes[payload_start..payload_start + payload_len]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());

    LARGEST.store(0, Ordering::Relaxed);
    let decoded = decode_entry(&bytes, &key);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        decoded.is_err(),
        "a header claiming 2^24 sessions must not load"
    );
    assert!(
        largest < 1 << 20,
        "decoding a {}-byte entry reserved {largest} bytes at once",
        bytes.len()
    );
}
