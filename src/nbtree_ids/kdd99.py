"""Built-in schema and attack taxonomy for the KDD99 benchmark.

The 41 connection attributes and their kinds follow the published
``kddcup.names`` description; symbolic domains cover the values seen in
the training and corrected test files so strict loading of the public
files succeeds out of the box.
"""

from __future__ import annotations

from importlib import resources

from .dataset import AttributeSpec, Schema, load_taxonomy_file

CLASS_NAMES = ("Normal", "Probe", "DoS", "U2R", "R2L")

_PROTOCOLS = ("tcp", "udp", "icmp")

_SERVICES = (
    "IRC", "X11", "Z39_50", "aol", "auth", "bgp", "courier", "csnet_ns",
    "ctf", "daytime", "discard", "domain", "domain_u", "echo", "eco_i",
    "ecr_i", "efs", "exec", "finger", "ftp", "ftp_data", "gopher",
    "harvest", "hostnames", "http", "http_2784", "http_443", "http_8001",
    "imap4", "iso_tsap", "klogin", "kshell", "ldap", "link", "login",
    "mtp", "name", "netbios_dgm", "netbios_ns", "netbios_ssn", "netstat",
    "nnsp", "nntp", "ntp_u", "other", "pm_dump", "pop_2", "pop_3",
    "printer", "private", "red_i", "remote_job", "rje", "shell", "smtp",
    "sql_net", "ssh", "sunrpc", "supdup", "systat", "telnet", "tftp_u",
    "tim_i", "time", "urh_i", "urp_i", "uucp", "uucp_path", "vmnet",
    "whois",
)

_FLAGS = ("OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3", "SF", "SH")

_BINARY = ("0", "1")

# (name, kind, domain) in record-field order
_ATTRIBUTES = (
    ("duration", "continuous", ()),
    ("protocol_type", "discrete", _PROTOCOLS),
    ("service", "discrete", _SERVICES),
    ("flag", "discrete", _FLAGS),
    ("src_bytes", "continuous", ()),
    ("dst_bytes", "continuous", ()),
    ("land", "discrete", _BINARY),
    ("wrong_fragment", "continuous", ()),
    ("urgent", "continuous", ()),
    ("hot", "continuous", ()),
    ("num_failed_logins", "continuous", ()),
    ("logged_in", "discrete", _BINARY),
    ("num_compromised", "continuous", ()),
    ("root_shell", "continuous", ()),
    ("su_attempted", "continuous", ()),
    ("num_root", "continuous", ()),
    ("num_file_creations", "continuous", ()),
    ("num_shells", "continuous", ()),
    ("num_access_files", "continuous", ()),
    ("num_outbound_cmds", "continuous", ()),
    ("is_host_login", "discrete", _BINARY),
    ("is_guest_login", "discrete", _BINARY),
    ("count", "continuous", ()),
    ("srv_count", "continuous", ()),
    ("serror_rate", "continuous", ()),
    ("srv_serror_rate", "continuous", ()),
    ("rerror_rate", "continuous", ()),
    ("srv_rerror_rate", "continuous", ()),
    ("same_srv_rate", "continuous", ()),
    ("diff_srv_rate", "continuous", ()),
    ("srv_diff_host_rate", "continuous", ()),
    ("dst_host_count", "continuous", ()),
    ("dst_host_srv_count", "continuous", ()),
    ("dst_host_same_srv_rate", "continuous", ()),
    ("dst_host_diff_srv_rate", "continuous", ()),
    ("dst_host_same_src_port_rate", "continuous", ()),
    ("dst_host_srv_diff_host_rate", "continuous", ()),
    ("dst_host_serror_rate", "continuous", ()),
    ("dst_host_srv_serror_rate", "continuous", ()),
    ("dst_host_rerror_rate", "continuous", ()),
    ("dst_host_srv_rerror_rate", "continuous", ()),
)


def kdd99_schema() -> Schema:
    """The 41-attribute KDD99 schema with the five-class label set."""
    attrs = tuple(AttributeSpec(n, k, tuple(d)) for n, k, d in _ATTRIBUTES)
    return Schema(attrs, CLASS_NAMES)


def kdd99_taxonomy() -> dict[str, str]:
    """Attack-name mapping shipped with the package (22 training attacks
    plus the extra names appearing in the corrected test set)."""
    with resources.as_file(resources.files("nbtree_ids").joinpath("data/kdd99.taxonomy")) as p:
        return load_taxonomy_file(p)
