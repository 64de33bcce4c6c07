"""Deployment compile parity against digests recorded before the knob table.

``EngineConfig`` knobs used to be plumbed by hand through the compiler, the
deployment model's hint dict and ``describe()``; they are now declared once
and everything else is derived.  These digests were recorded on the commit
before that change, so the derived compile must reproduce, for every spec
below, the exact ``describe()`` text, the ``as_dict()`` payload and the
resolved engine configuration (without ``shuffle_compression``, the field
the same change folded into ``spill_codec="none"``, and without
``fetch_timeout_s``, later folded into the ``FETCH_TIMEOUT_S`` constant; the
configuration column was re-recorded with that exclusion on the commit
before the fold, and again, also without the four fault fields that became
``faults``, on the commit before that change).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.core.compiler import CampaignCompiler
from repro.labs import build_default_challenges

#: One non-default, valid value per deployment preference that sets an
#: engine knob directly.
SETTABLE = {
    "broadcast_threshold_bytes": 4096,
    "target_partition_bytes": 65_536,
    "adaptive": False,
    "batch_size": 256,
    "skew_split_factor": 8,
    "skew_min_partition_bytes": 4096,
    "shuffle_memory_bytes": 1 << 20,
    "executor_backend": "process",
    "shuffle_transport": "tcp",
    "fetch_max_retries": 5,
    "speculation_multiplier": 1.5,
    "blacklist_failure_threshold": 3,
    "blacklist_cooldown_s": 2.5,
    "checkpoint_dir": "golden/checkpoints",
    "checkpoint_interval": 2,
    "recover_from": "golden/previous-run",
    "max_task_retries": 4,
    "failure_rate": 0.25,
    "seed": 17,
}


def _spec(streaming=False, **deployment):
    return {
        "name": "golden",
        "policy": "open_data",
        "source": {"scenario": "energy", "num_records": 3000,
                   "streaming": streaming, "batch_size": 250},
        "deployment": {"num_partitions": 4, **deployment},
        "goals": [{"id": "g", "task": "descriptive",
                   "params": {"fields": ["kwh"]}}],
    }


def corpus():
    """``(name, spec)`` for every spec whose compile is pinned below."""
    for challenge in build_default_challenges().challenges:
        keys = [dimension.option_keys for dimension in challenge.dimensions]
        for combination in itertools.product(*keys):
            yield (f"{challenge.key}:{'+'.join(combination)}",
                   challenge.build_spec(dict(zip(challenge.dimension_keys,
                                                 combination))))
    yield "streaming", _spec(streaming=True)
    for key, value in SETTABLE.items():
        extra = {"checkpoint_dir": SETTABLE["checkpoint_dir"]} \
            if key == "checkpoint_interval" else {}
        yield f"set:{key}", _spec(**{key: value}, **extra)
    yield "set:all", _spec(**SETTABLE)


#: Fields left out of the configuration digest: ``shuffle_compression``
#: and ``fetch_timeout_s``, and the four fault fields that became the
#: ``faults`` fail-point table.
EXCLUDED = ("shuffle_compression", "fetch_timeout_s", "crash_failure_rate",
            "corruption_rate", "network_drop_rate", "network_delay_s",
            "faults")


def digests(spec):
    """Digest prefixes of ``describe()``, ``as_dict()`` and the config."""
    deployment = CampaignCompiler().compile(spec).deployment
    config = {item.name: getattr(deployment.engine_config, item.name)
              for item in dataclasses.fields(deployment.engine_config)
              if item.name not in EXCLUDED}
    texts = (deployment.describe(),
             json.dumps(deployment.as_dict(), sort_keys=True),
             json.dumps(config, sort_keys=True))
    return tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                 for text in texts)


#: ``name -> (describe, as_dict, engine_config)`` sha256 prefixes.
RECORDED = {
    "churn-retention:logistic+core+recent":
        ("3159573345a0c540", "a97242e8e33d9726", "4e78acb68cb08b8b"),
    "churn-retention:logistic+core+full":
        ("9a46873fd1aaf2a2", "d5df28bd2c0da603", "9efde5bd5d031710"),
    "churn-retention:logistic+normalized+recent":
        ("9f9587d35597cc65", "5c71635db0cf6942", "4e78acb68cb08b8b"),
    "churn-retention:logistic+normalized+full":
        ("79e8487e49541ba7", "3eb98daf4aa97e6a", "9efde5bd5d031710"),
    "churn-retention:logistic+minimal+recent":
        ("3159573345a0c540", "e6183bff7e9b217e", "4e78acb68cb08b8b"),
    "churn-retention:logistic+minimal+full":
        ("9a46873fd1aaf2a2", "1ad7fe281f27e439", "9efde5bd5d031710"),
    "churn-retention:tree+core+recent":
        ("02efdde57d64296c", "cf49a3faf777434c", "4e78acb68cb08b8b"),
    "churn-retention:tree+core+full":
        ("94e72c7eb2b0f780", "4fb5f067a3145087", "9efde5bd5d031710"),
    "churn-retention:tree+normalized+recent":
        ("9f9da7bd3dc51eb2", "3abb97a2ed6cfb51", "4e78acb68cb08b8b"),
    "churn-retention:tree+normalized+full":
        ("cc7075e82a118b3c", "c847913d6c1fdb2d", "9efde5bd5d031710"),
    "churn-retention:tree+minimal+recent":
        ("02efdde57d64296c", "b2dc3e70607b271a", "4e78acb68cb08b8b"),
    "churn-retention:tree+minimal+full":
        ("94e72c7eb2b0f780", "43c5ca673eeae24d", "9efde5bd5d031710"),
    "churn-retention:bayes+core+recent":
        ("87945cfbc65f77cc", "14ce00526a0ac782", "4e78acb68cb08b8b"),
    "churn-retention:bayes+core+full":
        ("f75a612c81642987", "f7ca4d56f2924a7e", "9efde5bd5d031710"),
    "churn-retention:bayes+normalized+recent":
        ("04052091d5babd18", "5c03278d0d943e5d", "4e78acb68cb08b8b"),
    "churn-retention:bayes+normalized+full":
        ("2e26bdeba9666e44", "8fb1d76b7081d629", "9efde5bd5d031710"),
    "churn-retention:bayes+minimal+recent":
        ("87945cfbc65f77cc", "1843030398835e96", "4e78acb68cb08b8b"),
    "churn-retention:bayes+minimal+full":
        ("f75a612c81642987", "275a937c7f927209", "9efde5bd5d031710"),
    "churn-retention:baseline+core+recent":
        ("6d40b0f5cd8d3f45", "ac5a5db82cbbc7e1", "4e78acb68cb08b8b"),
    "churn-retention:baseline+core+full":
        ("710eafdef997c892", "9b688f65502dcb25", "9efde5bd5d031710"),
    "churn-retention:baseline+normalized+recent":
        ("209a62f26e832100", "f8efc48b7e737d60", "4e78acb68cb08b8b"),
    "churn-retention:baseline+normalized+full":
        ("625d6d093cea1510", "24cdb256cddca53e", "9efde5bd5d031710"),
    "churn-retention:baseline+minimal+recent":
        ("6d40b0f5cd8d3f45", "acd9097ca94b6c2c", "4e78acb68cb08b8b"),
    "churn-retention:baseline+minimal+full":
        ("710eafdef997c892", "af89ed7bfa1f1d39", "9efde5bd5d031710"),
    "energy-anomaly:zscore+global+batch":
        ("8d7558376dfdcf0e", "123628cbf790fd57", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore+global+streaming":
        ("0a02cc5e0e0e64df", "5ad8c40ba98b9f6c", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore+per-household+batch":
        ("8d7558376dfdcf0e", "211d10913a8b0182", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore+per-household+streaming":
        ("0a02cc5e0e0e64df", "375e790a8b5b0ddf", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore-sensitive+global+batch":
        ("8d7558376dfdcf0e", "2503c52baa8f1fa1", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore-sensitive+global+streaming":
        ("0a02cc5e0e0e64df", "87eba533acf48e3d", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore-sensitive+per-household+batch":
        ("8d7558376dfdcf0e", "407ce5a00a4bc8fe", "4e78acb68cb08b8b"),
    "energy-anomaly:zscore-sensitive+per-household+streaming":
        ("0a02cc5e0e0e64df", "520f56767cd1f05c", "4e78acb68cb08b8b"),
    "energy-anomaly:iqr+global+batch":
        ("255a717b9b618e3d", "dfde96dd3124d2bb", "4e78acb68cb08b8b"),
    "energy-anomaly:iqr+global+streaming":
        ("0c772f33b4d2fd5f", "dcd9ca4098fdb503", "4e78acb68cb08b8b"),
    "energy-anomaly:iqr+per-household+batch":
        ("255a717b9b618e3d", "fb5a0d6afa78fd44", "4e78acb68cb08b8b"),
    "energy-anomaly:iqr+per-household+streaming":
        ("0c772f33b4d2fd5f", "b3763a3eca92bab7", "4e78acb68cb08b8b"),
    "market-basket:balanced+month":
        ("a83a89ea125a4df0", "a26ff5ea0dbd37a7", "4e78acb68cb08b8b"),
    "market-basket:balanced+quarter":
        ("cddd6c73fa461a51", "60e04195c6db89e0", "9efde5bd5d031710"),
    "market-basket:strict+month":
        ("a83a89ea125a4df0", "fa28dc0436e58d0e", "4e78acb68cb08b8b"),
    "market-basket:strict+quarter":
        ("cddd6c73fa461a51", "8e3c886314027ca4", "9efde5bd5d031710"),
    "market-basket:permissive+month":
        ("a83a89ea125a4df0", "4d30ac1729fd853b", "4e78acb68cb08b8b"),
    "market-basket:permissive+quarter":
        ("cddd6c73fa461a51", "fd3a2566e6ee0b02", "9efde5bd5d031710"),
    "patient-privacy:strict+classify":
        ("775b138361fcfa57", "d02f73e0b84410a3", "4e78acb68cb08b8b"),
    "patient-privacy:strict+cost-model":
        ("c9bcabf826dd1fc1", "81302bbe1852657e", "4e78acb68cb08b8b"),
    "patient-privacy:stronger+classify":
        ("775b138361fcfa57", "282630e699db8a22", "4e78acb68cb08b8b"),
    "patient-privacy:stronger+cost-model":
        ("c9bcabf826dd1fc1", "96fb58ad927e928a", "4e78acb68cb08b8b"),
    "patient-privacy:weak+classify":
        ("542773d3f2b254e3", "7fc08956c847b623", "4e78acb68cb08b8b"),
    "patient-privacy:weak+cost-model":
        ("11b0b882475b2d6f", "539810276b049be0", "4e78acb68cb08b8b"),
    "web-operations:latency+local+day":
        ("774c03ef75218660", "aaa10204156b9f6f", "4e78acb68cb08b8b"),
    "web-operations:latency+local+week":
        ("2494eb405aaff6ab", "1880913d37c30677", "9efde5bd5d031710"),
    "web-operations:latency+small-cluster+day":
        ("3529da7391e6aa93", "bdeb3d7f76ced41a", "9efde5bd5d031710"),
    "web-operations:latency+small-cluster+week":
        ("3529da7391e6aa93", "83d9066c3220ac1b", "9efde5bd5d031710"),
    "web-operations:top-urls+local+day":
        ("c3cf51b42462f155", "8b247a1ed4da58e0", "4e78acb68cb08b8b"),
    "web-operations:top-urls+local+week":
        ("d8841cc204c237bb", "712d9ff52552f1d3", "9efde5bd5d031710"),
    "web-operations:top-urls+small-cluster+day":
        ("a65b0be201d50e6d", "226009a39014a155", "9efde5bd5d031710"),
    "web-operations:top-urls+small-cluster+week":
        ("a65b0be201d50e6d", "918e556a5ebf1661", "9efde5bd5d031710"),
    "web-operations:latency-anomalies+local+day":
        ("0d71755374af81e7", "ab45f8d51f15fb68", "4e78acb68cb08b8b"),
    "web-operations:latency-anomalies+local+week":
        ("36fb8a65ab7be587", "a073f22f1705efc2", "9efde5bd5d031710"),
    "web-operations:latency-anomalies+small-cluster+day":
        ("46d1c2df76dec744", "df9ddf73a7ef1203", "9efde5bd5d031710"),
    "web-operations:latency-anomalies+small-cluster+week":
        ("46d1c2df76dec744", "897f9f89fd2c615c", "9efde5bd5d031710"),
    "streaming":
        ("8710084f01b384ce", "8f4af6dedae647ce", "4e78acb68cb08b8b"),
    "set:broadcast_threshold_bytes":
        ("98525ab9b39073d2", "d35b4ef7e32adc9d", "db4e2ad3f95b4afe"),
    "set:target_partition_bytes":
        ("d8ba3c1bb647335d", "77de4a04a0cf650c", "9ab696b656ea3d5e"),
    "set:adaptive":
        ("a8dd84c648facd4f", "335cce686e6d145b", "2bee6230916e0660"),
    "set:batch_size":
        ("a4016fa59d58b1cb", "24cfe95c0eae464e", "64328d0c7ef4de79"),
    "set:skew_split_factor":
        ("c026757b1691f19b", "0d4f7f8e4de4ea90", "5917c8faeb4e92b4"),
    "set:skew_min_partition_bytes":
        ("d8ba3c1bb647335d", "2fb2fd012dd5c2a7", "0be23bb6d09c14a5"),
    "set:shuffle_memory_bytes":
        ("fb9080c3f32dcbdd", "f4b158f407bac162", "ec199b864138fd40"),
    "set:executor_backend":
        ("3a6ac8a380085aad", "5fda50061d38dab6", "bb264af27da5b76e"),
    "set:shuffle_transport":
        ("227681048f4141c9", "950326dd5d392d49", "c626b1e0a06cb215"),
    "set:fetch_max_retries":
        ("d8ba3c1bb647335d", "4cba73049253b2c4", "4c7a71ba0b2b9dc2"),
    "set:speculation_multiplier":
        ("ff4663a98ae3f1bb", "510ea07e2568dd14", "e30e0e40fb3ca229"),
    "set:blacklist_failure_threshold":
        ("d573b82043830445", "75428292bbdafdb2", "fe1e37d1b783d9a1"),
    "set:blacklist_cooldown_s":
        ("d8ba3c1bb647335d", "675000f995aee7aa", "f37cb44dd2cb1f50"),
    "set:checkpoint_dir":
        ("af1be9cbf042ea59", "178b65f59b558f8f", "b3c4e95202d31246"),
    "set:checkpoint_interval":
        ("2e6cd96a1d638a77", "9401bc82cef53e38", "06cdd6c94ac55d2b"),
    "set:recover_from":
        ("485863d38a19fd6e", "0dcfa9f90ff2e427", "43d5ec680120b934"),
    "set:max_task_retries":
        ("d8ba3c1bb647335d", "49dcb646b02ee873", "5601d32d3e10fa93"),
    "set:failure_rate":
        ("d8ba3c1bb647335d", "49dcb646b02ee873", "61e96567fe04ba2d"),
    "set:seed":
        ("d8ba3c1bb647335d", "49dcb646b02ee873", "d1618981235f00fe"),
    "set:all":
        ("b4f55029bba8312b", "dbd9fb9c2d674dbe", "fb9f186265688f0f"),
}

CORPUS = dict(corpus())


def test_corpus_is_the_recorded_one():
    assert sorted(CORPUS) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_compile_matches_recorded_digests(name):
    assert digests(CORPUS[name]) == RECORDED[name]
