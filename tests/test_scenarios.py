from monlat.scenarios import run_reference_scenarios, scenario_pentagon_dpn


class TestReferenceScenarios:
    def test_all_four_reproduce(self):
        results = run_reference_scenarios()
        assert [r.name for r in results] == [
            "pentagon-dpn",
            "six-lattice-quotient",
            "pentagon-ses-third-iso",
            "klein-four-ses-diexact",
        ]
        assert all(r.ok and not r.skipped for r in results)

    def test_depth_zero_marks_ses_scenarios_skipped(self):
        results = run_reference_scenarios(ses_depth=0)
        skipped = [r.name for r in results if r.skipped]
        assert skipped == ["pentagon-ses-third-iso", "klein-four-ses-diexact"]
        assert not all(r.ok for r in results)

    def test_corrupted_pentagon_is_caught_at_the_dpn_step(self, monkeypatch):
        # negative control: swapping C and D in the join table produces a
        # different (isomorphic) pentagon, so the expected witness pair moves
        # and the scenario must flag the divergence instead of passing
        from monlat import scenarios
        from monlat.monoid import validate_monoid
        from monlat.semilattice import pentagon

        N5 = pentagon()
        swap = {0: 0, N5.element("C"): N5.element("D"), N5.element("D"): N5.element("C"),
                N5.element("B"): N5.element("B"), N5.element("A"): N5.element("A")}
        corrupt = tuple(
            tuple(swap[N5.op(swap[i], swap[j])] for j in range(5)) for i in range(5)
        )
        monkeypatch.setattr(scenarios, "pentagon", lambda: validate_monoid(corrupt, N5.labels))
        result = scenario_pentagon_dpn()
        assert not result.ok
        assert "dpn" in result.detail
