//! Publishing invariants no `.scn` scenario covers: compact vs pretty
//! content, and concurrent streaming through the server. The exact
//! document bytes across batch × dop × cache × trace are pinned by the
//! scenario corpus (`tests/scenarios/fig8/publish_supplier_parts.snap`).

use xmlpub::xml::supplier_parts_view;
use xmlpub::Database;

#[test]
fn compact_and_pretty_have_identical_content() {
    let db = Database::tpch(0.0002).unwrap();
    let view = supplier_parts_view(db.catalog()).unwrap();
    let pretty = db.publish(&view, true).unwrap();
    let compact = db.publish(&view, false).unwrap();
    use xmlpub_testkit::normalize::strip_whitespace;
    // Only whitespace differs (attribute spaces excepted — keep those).
    assert_eq!(
        strip_whitespace(&pretty).len(),
        strip_whitespace(&compact).len(),
        "pretty and compact diverge beyond whitespace"
    );
}

/// Streaming and concurrency leave the document untouched: publishing
/// into a caller-supplied sink, and publishing from 8 sessions at once
/// through the server's worker pool, all yield bytes identical to the
/// serial in-memory pipeline.
#[test]
fn concurrent_streaming_publishes_are_byte_identical() {
    use xmlpub_server::{Server, ServerConfig};

    let db = Database::tpch(0.0002).unwrap();
    let view = supplier_parts_view(db.catalog()).unwrap();
    let golden_pretty = db.publish(&view, true).unwrap();
    let golden_compact = db.publish(&view, false).unwrap();

    // The io::Write sink path is the same bytes as the String path.
    let sunk = db.publish_to(&view, true, Vec::new()).unwrap();
    assert_eq!(String::from_utf8(sunk).unwrap(), golden_pretty);

    let server = Server::new(
        Database::tpch(0.0002).unwrap(),
        ServerConfig { workers: 4, queue_depth: 16, ..ServerConfig::default() },
    );
    std::thread::scope(|s| {
        for _ in 0..8 {
            let server = &server;
            let golden_pretty = &golden_pretty;
            let golden_compact = &golden_compact;
            s.spawn(move || {
                let session = server.session();
                let view = supplier_parts_view(session.database().catalog()).unwrap();
                assert_eq!(&session.publish(&view, true).unwrap(), golden_pretty);
                assert_eq!(&session.publish(&view, false).unwrap(), golden_compact);
            });
        }
    });
}
