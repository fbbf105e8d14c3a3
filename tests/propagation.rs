//! Experiment PROP (integration side): change-propagation semantics across
//! generated designs — selectivity, direction, reach, loosened blueprints,
//! and termination on adversarial graphs.

use damocles::flows::{generator, ActivityStream, DesignSpec};
use damocles::prelude::*;
use proptest::prelude::*;

fn strict_server(spec: &DesignSpec) -> ProjectServer {
    let mut server = ProjectServer::from_source(&spec.blueprint_source(true)).unwrap();
    generator::populate(&mut server, spec).unwrap();
    server
}

#[test]
fn propagation_reach_equals_downstream_closure() {
    let spec = DesignSpec {
        stages: 4,
        blocks: 7,
        fanout: 2,
    };
    let mut server = strict_server(&spec);

    // Check in blk3 at stage v1; everything transitively downstream of it —
    // derivations of blk3 at v2/v3 plus hierarchy descendants at each of
    // those stages — must go stale, and nothing else.
    let target_block = 3usize;
    server
        .checkin(
            &DesignSpec::block_name(target_block),
            &DesignSpec::view_name(1),
            "d",
            b"new".to_vec(),
        )
        .unwrap();
    server.process_all().unwrap();

    // Expected stale set computed independently from the spec's tree shape.
    let mut expected: std::collections::BTreeSet<(usize, usize)> = Default::default();
    // hierarchy descendants of a block (inclusive).
    fn descendants(spec: &DesignSpec, root: usize) -> Vec<usize> {
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() {
            let parent = out[i];
            for b in 0..spec.blocks {
                if spec.parent_of(b) == Some(parent) {
                    out.push(b);
                }
            }
            i += 1;
        }
        out
    }
    // stage 1: strict hierarchy descendants (the checked-in node itself is
    // fresh); stages 2..: the block's whole subtree including itself.
    for b in descendants(&spec, target_block) {
        if b != target_block {
            expected.insert((1, b));
        }
        for stage in 2..spec.stages {
            expected.insert((stage, b));
        }
    }

    let stale: std::collections::BTreeSet<(usize, usize)> = server
        .query()
        .out_of_date("uptodate")
        .into_iter()
        .map(|id| {
            let oid = server.db().oid(id).unwrap();
            let stage: usize = oid.view.as_str()[1..].parse().unwrap();
            let block: usize = oid.block.as_str()[3..].parse().unwrap();
            (stage, block)
        })
        .collect();

    assert_eq!(stale, expected);
}

#[test]
fn loosened_blueprint_propagates_nothing() {
    let spec = DesignSpec {
        stages: 4,
        blocks: 7,
        fanout: 2,
    };
    let mut server = ProjectServer::from_source(&spec.blueprint_source(false)).unwrap();
    generator::populate(&mut server, &spec).unwrap();
    server.reset_audit();

    server.checkin("blk0", "v0", "d", b"new".to_vec()).unwrap();
    server.process_all().unwrap();
    assert_eq!(server.audit().summary().propagations, 0);
    assert!(server.query().out_of_date("uptodate").is_empty());
}

#[test]
fn deep_chain_propagation_reaches_the_sink() {
    let spec = DesignSpec {
        stages: 10,
        blocks: 1,
        fanout: 1,
    };
    let mut server = strict_server(&spec);
    server.checkin("blk0", "v0", "d", b"new".to_vec()).unwrap();
    server.process_all().unwrap();
    let stale = server.query().out_of_date("uptodate");
    assert_eq!(stale.len(), 9, "all nine downstream stages stale");
}

#[test]
fn sibling_subtrees_are_untouched() {
    let spec = DesignSpec {
        stages: 2,
        blocks: 7,
        fanout: 2,
    };
    let mut server = strict_server(&spec);
    // blk1 and blk2 are siblings under blk0. A change to blk1 must never
    // stale blk2's subtree.
    server.checkin("blk1", "v0", "d", b"new".to_vec()).unwrap();
    server.process_all().unwrap();
    let stale_blocks: Vec<String> = server
        .query()
        .out_of_date("uptodate")
        .into_iter()
        .map(|id| server.db().oid(id).unwrap().block.to_string())
        .collect();
    assert!(!stale_blocks.contains(&"blk2".to_string()));
    assert!(!stale_blocks.contains(&"blk0".to_string()));
}

#[test]
fn direction_selects_one_side_of_the_links() {
    // "The events … can be propagated in either direction through the Link"
    // (§2) — the *message* carries the direction. Posting `outofdate up` at
    // the middle of a chain reaches the middle and everything upstream, but
    // never the downstream side; `down` is the mirror image.
    let spec = DesignSpec {
        stages: 3,
        blocks: 1,
        fanout: 1,
    };
    let mut server = strict_server(&spec);
    let middle = Oid::new("blk0", "v1", 1);
    server
        .post_line(&format!("postEvent outofdate up {middle}"), "d")
        .unwrap();
    server.process_all().unwrap();
    assert_eq!(
        server.prop(&Oid::new("blk0", "v0", 1), "uptodate").unwrap(),
        Value::Bool(false),
        "up travels to the source"
    );
    assert_eq!(
        server.prop(&middle, "uptodate").unwrap(),
        Value::Bool(false)
    );
    assert_eq!(
        server.prop(&Oid::new("blk0", "v2", 1), "uptodate").unwrap(),
        Value::Bool(true),
        "up must not leak downstream"
    );
}

#[test]
fn adversarial_cycle_terminates() {
    // Hand-build a cyclic link graph (equivalence both ways) under a
    // blueprint that relays the event onward — the cycle guard must hold.
    let mut server = ProjectServer::from_source(
        r#"blueprint cyc
        view a
            property hits default 0
            link_from b propagates ping type equivalence
            when ping do hits = 1; post ping down done
        endview
        view b
            property hits default 0
            link_from a propagates ping type equivalence
            when ping do hits = 1; post ping up done
        endview
        endblueprint"#,
    )
    .unwrap();
    let x = server.create_object(Oid::new("x", "a", 1)).unwrap();
    let y = server.create_object(Oid::new("y", "b", 1)).unwrap();
    server.connect(y, x).unwrap(); // template orientation b -> a
    server.post_line("postEvent ping down y,b,1", "t").unwrap();
    let report = server.process_all().unwrap();
    assert!(report.deliveries <= 4);
    assert_eq!(
        server.prop(&Oid::new("x", "a", 1), "hits").unwrap(),
        Value::Int(1)
    );
}

// ---------------------------------------------------------------------
// Mid-session topology and mid-drain errors
// ---------------------------------------------------------------------

/// Two link-disjoint view families (`a_*`, `b_*`) under the usual
/// ckin/outofdate tracking rules.
const TWO_FAMILIES: &str = r#"
    blueprint families
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view a_src endview
    view a_der
        link_from a_src move propagates outofdate type derived
    endview
    view b_src endview
    view b_der
        link_from b_src move propagates outofdate type derived
    endview
    endblueprint
"#;

/// Builds `n` independent `src → der` chains per family.
fn populate_families(server: &mut ProjectServer<impl ScriptExecutor>, n: usize) {
    for fam in ["a", "b"] {
        for i in 0..n {
            let block = format!("{fam}{i}");
            let src = server
                .checkin(&block, &format!("{fam}_src"), "t", b"s".to_vec())
                .unwrap();
            let der = server
                .checkin(&block, &format!("{fam}_der"), "t", b"d".to_vec())
                .unwrap();
            server.connect_oids(&src, &der).unwrap();
        }
    }
}

/// A wrapper tool that, when invoked, relates its origin OID to the
/// latest `b0,b_src` version with a PROPAGATE-carrying link created
/// through the raw database API — a link no template describes.
#[derive(Debug, Default)]
struct BridgeBuilder;

impl ScriptExecutor for BridgeBuilder {
    fn execute(
        &mut self,
        inv: &damocles::core::engine::exec::ScriptInvocation,
        ctx: &mut damocles::core::engine::exec::ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        let from: Oid = inv.args[0].parse().unwrap();
        let from = ctx.db.resolve(&from).unwrap();
        let to = ctx.latest("b0", "b_src").unwrap();
        ctx.db
            .add_link_with(
                from,
                to,
                damocles::meta::LinkClass::Derive,
                damocles::meta::LinkKind::DeriveFrom,
                ["outofdate"],
            )
            .unwrap();
        Vec::new()
    }
}

#[test]
fn mid_session_raw_link_propagates() {
    // One extra rule: a `bridge` event makes the tool wire its target
    // into the B family.
    let source = TWO_FAMILIES.replace(
        "view a_der\n        link_from a_src move propagates outofdate type derived\n    endview",
        "view a_der\n        link_from a_src move propagates outofdate type derived\n        when bridge do exec bridger \"$oid\" done\n    endview",
    );
    let bp = parse(&source).unwrap();
    let mut server = ProjectServer::with_executor(bp, BridgeBuilder).unwrap();
    populate_families(&mut server, 2);
    server.process_all().unwrap();

    // Mid-session: the tool bridges a0's derived view into b0's source.
    server
        .post_line("postEvent bridge down a0,a_der,1", "t")
        .unwrap();
    server.process_all().unwrap();

    // The next drain crosses the bridge: a fresh a0 source version
    // invalidates b0's source+derived chain too, and nothing else.
    server.checkin("a0", "a_src", "t", b"v2".to_vec()).unwrap();
    server.process_all().unwrap();
    for oid in [
        Oid::new("a0", "a_der", 1),
        Oid::new("b0", "b_src", 1),
        Oid::new("b0", "b_der", 1),
    ] {
        assert_eq!(
            server.prop(&oid, "uptodate").unwrap(),
            Value::Bool(false),
            "{oid} must be invalidated through the mid-session link"
        );
    }
    for oid in [Oid::new("a1", "a_der", 1), Oid::new("b1", "b_der", 1)] {
        assert_eq!(
            server.prop(&oid, "uptodate").unwrap(),
            Value::Bool(true),
            "{oid} is not downstream of the bridge"
        );
    }
}

/// A mid-drain error stops the drain at the erroring event, but the
/// wrapper invocations of the events before it have already been
/// dispatched, and the events after it stay queued.
#[test]
fn drain_error_still_dispatches_prefix_invocations() {
    let source = TWO_FAMILIES.replace(
        "view a_src endview",
        "view a_src\n        when probe do exec checker \"$oid\" done\n    endview",
    );
    let bp = parse(&source).unwrap();
    let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
    populate_families(&mut server, 2);
    server.process_all().unwrap();
    // Strict policy: an event at an unknown view is a hard error.
    server.policy_mut().unknown_views = damocles::core::engine::policy::Strictness::Reject;
    server
        .create_object(Oid::new("ghost", "mystery", 1))
        .unwrap();
    // Queue: [exec-producing probe, erroring event, never-reached probe].
    server
        .post_line("postEvent probe up a0,a_src,1", "t")
        .unwrap();
    server
        .post_line("postEvent boom up ghost,mystery,1", "t")
        .unwrap();
    server
        .post_line("postEvent probe up a1,a_src,1", "t")
        .unwrap();
    let err = server.process_all().unwrap_err();
    assert!(
        matches!(err, EngineError::Policy(_)),
        "expected the policy violation, got {err:?}"
    );
    let invoked: Vec<String> = server
        .executor()
        .invocations_of("checker")
        .iter()
        .map(|i| i.args[0].clone())
        .collect();
    assert_eq!(invoked, vec!["a0,a_src,1".to_string()]);
    assert_eq!(
        server.pending_events(),
        1,
        "the unreached event stays queued"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the design shape and activity stream, processing terminates
    /// and every OID's uptodate flag is a boolean.
    #[test]
    fn random_streams_terminate_with_consistent_state(
        stages in 1usize..5,
        blocks in 1usize..9,
        fanout in 1usize..4,
        seed in 0u64..1000,
        n_acts in 1usize..15,
    ) {
        let spec = DesignSpec { stages, blocks, fanout };
        let mut server = strict_server(&spec);
        let mut stream = ActivityStream::new(spec, seed, 0.6);
        for activity in stream.take_activities(n_acts) {
            generator::apply_activity(&mut server, &activity).unwrap();
        }
        prop_assert_eq!(server.pending_events(), 0);
        for (_, entry) in server.db().iter_oids() {
            let v = entry.props.get("uptodate").expect("template applied");
            prop_assert!(matches!(v, Value::Bool(_)));
        }
    }

    /// The freshly checked-in OID is always up to date afterwards.
    #[test]
    fn checkin_always_freshens_its_target(
        seed in 0u64..500,
    ) {
        let spec = DesignSpec::tiny();
        let mut server = strict_server(&spec);
        let mut stream = ActivityStream::new(spec, seed, 1.0);
        for activity in stream.take_activities(8) {
            if let damocles::flows::Activity::Checkin { block, view } = &activity {
                generator::apply_activity(&mut server, &activity).unwrap();
                let latest = server.db().latest_version(block, view).unwrap();
                let fresh = server.db().get_prop(latest, "uptodate").unwrap().unwrap();
                prop_assert_eq!(fresh, &Value::Bool(true));
            }
        }
    }
}
