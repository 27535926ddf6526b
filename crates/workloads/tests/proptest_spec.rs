//! Property tests for the scenario-spec TOML round trip: any spec the
//! strategy can produce must serialize to TOML, parse back to an equal
//! spec, and lower to the same program both ways.

use helix_ir::Distribution;
use helix_workloads::gen::generate;
use helix_workloads::spec::{
    CarryOp, CarryOperand, CarrySpec, CountExpr, ElemTy, HotLoopSpec, NestSpec, OpSpec, PhaseSpec,
    RegionSpec, RunSpec, ScenarioSpec,
};
use helix_workloads::{builtin_specs, Kind, Scale};
use proptest::prelude::*;

fn ri(name: &str, size: CountExpr) -> RegionSpec {
    RegionSpec {
        name: name.into(),
        size,
        elem: ElemTy::I64,
    }
}

fn mask_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![Just(1i64), Just(3), Just(15), Just(127), Just(255)]
}

fn dist_strategy() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        (1i64..40).prop_map(|value| Distribution::Fixed { value }),
        (1i64..10, 10i64..80).prop_map(|(lo, hi)| Distribution::Uniform { lo, hi }),
        (1i64..8, 40i64..200, 2i64..32).prop_map(|(short, long, period)| {
            Distribution::Bursty {
                short,
                long,
                period,
            }
        }),
        (2i64..12, 20i64..99).prop_map(|(mean, cap)| Distribution::Geometric { mean, cap }),
    ]
}

/// Ops that are valid anywhere in the body (current value is always
/// available because the loop streams `mid`, and `tab`/`links`/`lens`
/// regions are part of the fixed scaffold).
fn leaf_op_strategy(has_carry: bool) -> BoxedStrategy<OpSpec> {
    let base = prop_oneof![
        (1i64..60).prop_map(|insts| OpSpec::Work { insts }),
        (1i64..997).prop_map(|stride| OpSpec::Stream {
            region: "grid".into(),
            stride,
        }),
        (mask_strategy(), 0i64..3, any::<bool>(), any::<bool>()).prop_map(
            |(mask, shift, add, one)| OpSpec::Table {
                region: "tab".into(),
                shift: shift * 10,
                mask,
                op: if add {
                    helix_workloads::spec::UpdateOp::Add
                } else {
                    helix_workloads::spec::UpdateOp::Xor
                },
                value: if one {
                    helix_workloads::spec::UpdateValue::One
                } else {
                    helix_workloads::spec::UpdateValue::Cur
                },
            }
        ),
        mask_strategy().prop_map(|mask| OpSpec::ChainHead {
            region: "tab".into(),
            mask,
        }),
        Just(OpSpec::Bump {
            region: "out".into()
        }),
        (2i64..9).prop_map(|factor| OpSpec::ScaleStore {
            region: "mid".into(),
            factor,
        }),
        Just(OpSpec::Store {
            region: "mid".into()
        }),
        (1i64..4, mask_strategy()).prop_map(|(hops, mask)| OpSpec::PtrChase {
            region: "tab".into(),
            hops,
            mask,
        }),
        dist_strategy().prop_map(|dist| OpSpec::VarWork {
            region: "lens".into(),
            dist,
        }),
    ];
    if has_carry {
        prop_oneof![
            base,
            (
                prop_oneof![
                    Just(CarryOp::Add),
                    Just(CarryOp::Xor),
                    Just(CarryOp::Mul),
                    Just(CarryOp::Shl),
                    Just(CarryOp::Min)
                ],
                prop_oneof![
                    Just(CarryOperand::Cur),
                    (1i64..100).prop_map(CarryOperand::Imm)
                ]
            )
                .prop_map(|(op, operand)| OpSpec::Carry { op, operand })
        ]
        .boxed()
    } else {
        base.boxed()
    }
}

fn op_strategy(has_carry: bool) -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        leaf_op_strategy(has_carry),
        (
            mask_strategy(),
            prop::collection::vec(leaf_op_strategy(has_carry), 1..3),
            prop::collection::vec(leaf_op_strategy(has_carry), 0..3)
        )
            .prop_map(|(mask, then_ops, else_ops)| OpSpec::Guard {
                mask,
                then_ops,
                else_ops,
            }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        (50i64..400, any::<i64>(), any::<bool>(), 1i64..30),
        (
            prop::collection::vec(op_strategy(true), 1..5),
            prop::collection::vec(op_strategy(false), 1..5),
        ),
        (2i64..33, 0i64..3),
        (any::<bool>(), 0i64..200, 1i64..200),
    )
        .prop_map(
            |(
                (base_n, seed, with_carry, doall_work),
                (carry_ops, free_ops),
                (cores, machines),
                (multi_nest, glue_front, glue_back),
            )| {
                let carry = with_carry.then(|| CarrySpec {
                    init: seed % 1000,
                    out: "out".into(),
                });
                let ops = if with_carry { carry_ops } else { free_ops };
                let mut spec = ScenarioSpec {
                    name: "prop.scenario".into(),
                    description: "round-trip \"quoted\\path\"\nsecond line".into(),
                    kind: Kind::Int,
                    base_n,
                    seed,
                    regions: vec![
                        ri("in", CountExpr::n_plus(1)),
                        ri("mid", CountExpr::n_plus(1)),
                        ri("grid", CountExpr::fixed(1024)),
                        ri("tab", CountExpr::fixed(256)),
                        ri("lens", CountExpr::n_plus(1)),
                        ri("out", CountExpr::fixed(8)),
                    ],
                    phases: vec![
                        PhaseSpec::Fill {
                            region: "in".into(),
                            count: CountExpr::n(),
                            seed: seed % 97,
                        },
                        PhaseSpec::Doall {
                            input: "in".into(),
                            output: "mid".into(),
                            count: CountExpr::n(),
                            work: doall_work,
                        },
                        PhaseSpec::HotLoop(HotLoopSpec {
                            trips: CountExpr::n(),
                            input: Some("mid".into()),
                            carry,
                            ops,
                        }),
                    ],
                    nests: vec![],
                    run: RunSpec {
                        cores,
                        machines: RunSpec::default().machines[..(machines as usize + 1)].to_vec(),
                        ..RunSpec::default()
                    },
                };
                // Half the cases re-express the same pipeline as two
                // nests with glue, carried state, and a private region,
                // covering the multi-nest axis of the round trip.
                if multi_nest {
                    let phases = std::mem::take(&mut spec.phases);
                    spec.nests = vec![
                        NestSpec {
                            name: "front".into(),
                            glue: CountExpr::fixed(glue_front),
                            import: None,
                            export: Some("out".into()),
                            regions: vec![],
                            phases: phases[..2].to_vec(),
                        },
                        NestSpec {
                            name: "back".into(),
                            glue: CountExpr::fixed(glue_back),
                            import: Some("out".into()),
                            export: None,
                            regions: vec![ri("scratchpad", CountExpr::fixed(64))],
                            phases: phases[2..].to_vec(),
                        },
                    ];
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// to_toml -> from_toml is the identity on generated specs.
    #[test]
    fn spec_toml_round_trip(spec in spec_strategy()) {
        prop_assert!(spec.validate().is_ok(), "strategy produced invalid spec");
        let text = spec.to_toml();
        let parsed = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        prop_assert_eq!(&parsed, &spec);
        // And the round-tripped spec lowers to the identical program.
        let p1 = generate(&spec, Scale::Test).expect("generate original");
        let p2 = generate(&parsed, Scale::Test).expect("generate parsed");
        prop_assert_eq!(p1, p2);
    }
}

/// The committed builtins round-trip through TOML too (belt and braces
/// on top of the property: these are the specs users start from).
#[test]
fn builtin_round_trip_through_files() {
    for spec in builtin_specs() {
        let parsed = ScenarioSpec::from_toml(&spec.to_toml()).expect(&spec.name);
        assert_eq!(parsed, spec, "{}", spec.name);
    }
}
