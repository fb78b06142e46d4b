"""Average precision, greedy matching and attack success rate on hand cases."""

import math

import numpy as np
import pytest

from advfield.evaluate import (Detection, GroundTruth, _match_matrix, attack_success_rate,
                               average_precision, detected_mask)
from advfield.geometry import OrientedBox


def car(x, y=0.0, yaw=0.0):
    """A 4.6 m car along x: a shift of d along x gives IoU (4.6 - d) / (4.6 + d)."""
    return OrientedBox([x, y, 0.8], 1.8, 1.6, 4.6, yaw)


GTS = [GroundTruth(0, car(0.0)), GroundTruth(0, car(10.0))]


class TestMatching:
    def test_duplicate_is_a_false_positive(self):
        dets = [Detection(0, 0.9, car(0.0)), Detection(0, 0.8, car(0.1)),
                Detection(0, 0.5, car(10.0))]
        order, is_tp = _match_matrix(dets, GTS, 0.7)
        assert order == [0, 1, 2]
        assert is_tp.tolist() == [True, False, True]

    def test_best_untaken_ground_truth_wins(self):
        gts = [GroundTruth(0, car(0.0)), GroundTruth(0, car(0.3))]
        # the first-ranked detection has IoU 4.4/4.8 with the first and 4.5/4.7
        # with the second; had it taken the first, the other detection would be
        # left with IoU 4.3/4.9 < 0.9 and become a false positive
        dets = [Detection(0, 0.4, car(0.0)), Detection(0, 0.9, car(0.2))]
        order, is_tp = _match_matrix(dets, gts, 0.9)
        assert order == [1, 0]
        assert is_tp.tolist() == [True, True]

    def test_other_scenes_and_the_threshold_do_not_match(self):
        # IoU 3.0/6.2 < 0.7, and scene 1 has no ground truth
        dets = [Detection(0, 0.9, car(1.6)), Detection(1, 0.8, car(0.0))]
        _, is_tp = _match_matrix(dets, GTS, 0.7)
        assert is_tp.tolist() == [False, False]


class TestAveragePrecision:
    def test_hand_case(self):
        # ranked TP, FP (duplicate), TP: recall 1/2, 1/2, 1 and
        # precision 1, 1/2, 2/3, so AP = 1/2 * 1 + 1/2 * 2/3
        dets = [Detection(0, 0.9, car(0.0)), Detection(0, 0.8, car(0.1)),
                Detection(0, 0.5, car(10.0))]
        assert average_precision(dets, GTS, 0.7) == pytest.approx(0.5 + 1.0 / 3.0,
                                                                  abs=1e-12)

    def test_lower_scored_true_positive_is_ranked_last(self):
        # a false positive scores above the second true positive:
        # precision 1, 1/2, 2/3 again
        dets = [Detection(0, 0.3, car(10.0)), Detection(0, 0.95, car(0.0)),
                Detection(0, 0.6, car(30.0))]
        assert average_precision(dets, GTS, 0.7) == pytest.approx(0.5 + 1.0 / 3.0,
                                                                  abs=1e-12)

    def test_perfect_detections(self):
        dets = [Detection(0, 0.9, car(0.0)), Detection(0, 0.8, car(10.0))]
        assert average_precision(dets, GTS, 0.7) == 1.0

    def test_no_ground_truth_or_no_detection(self):
        assert average_precision([Detection(0, 0.9, car(0.0))], [], 0.7) == 0.0
        assert average_precision([], GTS, 0.7) == 0.0


class TestAttackSuccessRate:
    def test_lost_object(self):
        clean = [Detection(0, 0.9, car(0.0)), Detection(0, 0.8, car(10.0))]
        attacked = [Detection(0, 0.9, car(0.0)), Detection(0, 0.8, car(12.0))]
        assert detected_mask(clean, GTS, 0.7).tolist() == [True, True]
        assert detected_mask(attacked, GTS, 0.7).tolist() == [True, False]
        assert attack_success_rate(clean, attacked, GTS, 0.7) == 50.0

    def test_only_clean_detected_objects_count(self):
        clean = [Detection(0, 0.9, car(0.0))]
        attacked = [Detection(0, 0.9, car(10.0))]
        assert attack_success_rate(clean, attacked, GTS, 0.7) == 100.0
        assert attack_success_rate([], attacked, GTS, 0.7) == 0.0

    def test_no_ground_truth(self):
        dets = [Detection(0, 0.9, car(0.0))]
        assert detected_mask(dets, [], 0.7).tolist() == []
        assert attack_success_rate(dets, [], [], 0.7) == 0.0


class TestRotatedOverlap:
    """A 2x2 footprint against itself turned by 45 degrees: IoU = 1/sqrt 2."""

    square = OrientedBox(np.zeros(3), 2.0, 1.0, 2.0, 0.0)
    turned = OrientedBox(np.zeros(3), 2.0, 1.0, 2.0, math.pi / 4)

    @pytest.mark.parametrize("thr, hit", [(0.70, True), (0.72, False)])
    def test_threshold(self, thr, hit):
        dets = [Detection(0, 0.9, self.turned)]
        gts = [GroundTruth(0, self.square)]
        _, is_tp = _match_matrix(dets, gts, thr)
        assert is_tp.tolist() == [hit]
        assert average_precision(dets, gts, thr) == (1.0 if hit else 0.0)
        assert detected_mask(dets, gts, thr).tolist() == [hit]
