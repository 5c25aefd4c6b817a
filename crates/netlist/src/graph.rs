//! Net-list model: nets, devices, terminals.

use crate::unionfind::UnionFind;
use diic_tech::DeviceClass;
use std::borrow::Cow;
use std::collections::HashMap;

/// Identifier of a net in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a device in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A net: a canonical name, all its aliases (dot-notation identifiers that
/// were merged into it), and the device terminals on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Canonical name (the lexicographically smallest alias, which favours
    /// short top-level names like `VDD` over deep `a.b.c` paths).
    pub name: String,
    /// All identifiers merged into this net, sorted.
    pub aliases: Vec<String>,
    /// `(device, terminal-name)` pairs attached to this net.
    pub terminals: Vec<(DeviceId, String)>,
}

/// A device instance with its typed terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Instance path (dot notation).
    pub name: String,
    /// The `9D` type name (e.g. `NMOS_ENH`).
    pub device_type: String,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, net)` pairs.
    pub terminals: Vec<(String, NetId)>,
}

/// An extracted or intended net list.
///
/// Equality compares the canonical content (nets and devices); the
/// name-lookup table is derived data, built lazily on the first
/// [`Netlist::net_by_name`] call — net-list construction is on the
/// incremental re-check path, where most rebuilt lists are never
/// queried by name.
#[derive(Debug, Default)]
pub struct Netlist {
    nets: Vec<Net>,
    devices: Vec<Device>,
    by_name: std::sync::OnceLock<HashMap<String, NetId>>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            nets: self.nets.clone(),
            devices: self.devices.clone(),
            by_name: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.nets == other.nets && self.devices == other.devices
    }
}

impl Eq for Netlist {}

impl Netlist {
    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Finds the net that has `name` among its aliases.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name
            .get_or_init(|| {
                let mut map = HashMap::new();
                for (i, net) in self.nets.iter().enumerate() {
                    for a in &net.aliases {
                        map.insert(a.clone(), NetId(i as u32));
                    }
                }
                map
            })
            .get(name)
            .copied()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }
}

/// A device staged in the builder: path, type, class, and terminal
/// `(name, interned net key)` pairs.
type StagedDevice = (String, String, DeviceClass, Vec<(String, u32)>);

/// A device staged for [`assemble_netlist`], borrowing its strings.
#[derive(Debug, Clone)]
pub struct AssembleDevice<'a> {
    /// Instance path (dot notation).
    pub name: &'a str,
    /// The `9D` type name.
    pub device_type: &'a str,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, node)` pairs (nodes are positions in the
    /// names given to [`assemble_netlist`]).
    pub terminals: Vec<(&'a str, u32)>,
}

/// Assembles a canonical [`Netlist`] from an explicit node/edge/device
/// graph, returning it together with the per-node net resolution
/// (aligned with `names`).
///
/// This is the single canonicalisation path: [`NetlistBuilder::finish`]
/// is a thin wrapper over it, and the incremental checker calls it
/// directly with a persistently interned graph — which is why a patched
/// session netlist is byte-identical to a from-scratch build: both are
/// this one pure function of (live nodes, connectivity, devices).
///
/// Nodes are positions in `names`; edges and device terminals refer to
/// them by position. Owned names move into the net list's aliases
/// without a copy.
///
/// Canonical form: nets are the connected components of the node graph;
/// a net's canonical name is its shortest (then lexicographically
/// smallest) alias; `aliases` are sorted; nets are ordered by canonical
/// name; terminals appear in device order. Distinct nodes may carry
/// equal names: such ties break by position, so the order is total and
/// the result is a pure function of the inputs.
pub fn assemble_netlist(
    names: Vec<Cow<'_, str>>,
    edges: &[(u32, u32)],
    devices: &[AssembleDevice<'_>],
) -> (Netlist, Vec<NetId>) {
    let n = names.len();
    let mut uf = UnionFind::new();
    for _ in 0..n {
        uf.make();
    }
    for &(a, b) in edges {
        uf.union(a, b);
    }
    let root: Vec<u32> = (0..n as u32).map(|node| uf.find(node)).collect();

    // Bucket the names by component root (a counting sort: each bucket
    // is one contiguous slice, its names moved in), then sort each
    // bucket's aliases by (name, position).
    let mut start = vec![0u32; n + 1];
    for &r in &root {
        start[r as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let bucket = |r: usize| start[r] as usize..start[r + 1] as usize;
    let mut members: Vec<(Cow<'_, str>, u32)> = vec![(Cow::Borrowed(""), 0); n];
    let mut fill = start.clone();
    for ((node, name), &r) in names.into_iter().enumerate().zip(&root) {
        members[fill[r as usize] as usize] = (name, node as u32);
        fill[r as usize] += 1;
    }
    // One net per non-empty bucket, with its canonical (shortest, then
    // smallest) alias.
    let mut nets_by_root: Vec<(usize, usize)> = Vec::new();
    for r in 0..n {
        let range = bucket(r);
        if range.is_empty() {
            continue;
        }
        let aliases = &mut members[range.clone()];
        aliases.sort_unstable();
        let canon = (aliases.iter().enumerate())
            .min_by_key(|(_, (name, pos))| (name.len(), name, pos))
            .map(|(i, _)| range.start + i)
            .expect("bucket is non-empty");
        nets_by_root.push((r, canon));
    }
    // Deterministic net order: by canonical alias, ties by position.
    nets_by_root.sort_unstable_by(|&(_, a), &(_, b)| members[a].cmp(&members[b]));

    let mut root_to_net: Vec<NetId> = vec![NetId(u32::MAX); n];
    for (i, &(r, _)) in nets_by_root.iter().enumerate() {
        root_to_net[r] = NetId(i as u32);
    }
    let node_nets: Vec<NetId> = root.iter().map(|&r| root_to_net[r as usize]).collect();
    let mut nets: Vec<Net> = nets_by_root
        .into_iter()
        .map(|(r, canon)| Net {
            name: members[canon].0.to_string(),
            aliases: members[bucket(r)]
                .iter_mut()
                .map(|(name, _)| std::mem::take(name).into_owned())
                .collect(),
            terminals: Vec::new(),
        })
        .collect();

    let mut out_devices: Vec<Device> = Vec::with_capacity(devices.len());
    for (di, dev) in devices.iter().enumerate() {
        let mut terminals = Vec::with_capacity(dev.terminals.len());
        for &(tname, node) in &dev.terminals {
            let net = node_nets[node as usize];
            nets[net.0 as usize]
                .terminals
                .push((DeviceId(di as u32), tname.to_string()));
            terminals.push((tname.to_string(), net));
        }
        out_devices.push(Device {
            name: dev.name.to_string(),
            device_type: dev.device_type.to_string(),
            class: dev.class,
            terminals,
        });
    }

    (
        Netlist {
            nets,
            devices: out_devices,
            by_name: std::sync::OnceLock::new(),
        },
        node_nets,
    )
}

/// Builder: intern net keys, merge them as connections are discovered, add
/// devices, then [`NetlistBuilder::finish`] into a canonical [`Netlist`].
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    uf: UnionFind,
    keys: HashMap<String, u32>,
    names: Vec<String>,
    edges: Vec<(u32, u32)>,
    devices: Vec<StagedDevice>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Interns a net identifier, returning its node.
    pub fn node(&mut self, key: &str) -> u32 {
        if let Some(&n) = self.keys.get(key) {
            return n;
        }
        let n = self.uf.make();
        debug_assert_eq!(n as usize, self.names.len());
        self.keys.insert(key.to_string(), n);
        self.names.push(key.to_string());
        n
    }

    /// Records that two net identifiers are connected (merges their nets).
    pub fn connect(&mut self, a: &str, b: &str) {
        let na = self.node(a);
        let nb = self.node(b);
        self.edges.push((na, nb));
        self.uf.union(na, nb);
    }

    /// True if two identifiers are currently on the same net.
    pub fn connected(&mut self, a: &str, b: &str) -> bool {
        let na = self.node(a);
        let nb = self.node(b);
        self.uf.same(na, nb)
    }

    /// Adds a device with `(terminal-name, net-key)` pairs.
    pub fn add_device(
        &mut self,
        name: &str,
        device_type: &str,
        class: DeviceClass,
        terminals: &[(&str, &str)],
    ) {
        let terms: Vec<(String, u32)> = terminals
            .iter()
            .map(|(t, key)| (t.to_string(), self.node(key)))
            .collect();
        self.devices
            .push((name.to_string(), device_type.to_string(), class, terms));
    }

    /// Produces the canonical net list (through [`assemble_netlist`],
    /// the same path the incremental checker's patched graph takes).
    pub fn finish(self) -> Netlist {
        // Nodes are dense `uf.make()` ids, i.e. positions in `names`.
        let devices: Vec<AssembleDevice<'_>> = self
            .devices
            .iter()
            .map(|(name, device_type, class, terms)| AssembleDevice {
                name,
                device_type,
                class: *class,
                terminals: terms.iter().map(|(t, n)| (t.as_str(), *n)).collect(),
            })
            .collect();
        let names = self.names.into_iter().map(Cow::Owned).collect();
        assemble_netlist(names, &self.edges, &devices).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pullup",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        b.add_device(
            "pulldown",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "GND"), ("D", "out")],
        );
        b.finish()
    }

    #[test]
    fn build_inverter() {
        let n = inverter_netlist();
        assert_eq!(n.device_count(), 2);
        assert_eq!(n.net_count(), 4); // VDD, GND, in, out
        let out = n.net_by_name("out").unwrap();
        assert_eq!(n.net(out).terminals.len(), 3);
    }

    #[test]
    fn connect_merges_aliases() {
        let mut b = NetlistBuilder::new();
        b.connect("a.out", "b.in");
        b.connect("b.in", "x");
        let n = b.finish();
        assert_eq!(n.net_count(), 1);
        let id = n.net_by_name("x").unwrap();
        assert_eq!(n.net_by_name("a.out"), Some(id));
        assert_eq!(n.net(id).name, "x"); // shortest alias wins
        assert_eq!(n.net(id).aliases.len(), 3);
    }

    #[test]
    fn canonical_name_prefers_short_toplevel() {
        let mut b = NetlistBuilder::new();
        b.connect("i3.i2.vdd", "VDD");
        let n = b.finish();
        assert_eq!(n.net(NetId(0)).name, "VDD");
    }

    #[test]
    fn device_terminals_resolve_through_merges() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "t1",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g1"), ("S", "s1"), ("D", "d1")],
        );
        b.connect("d1", "wire");
        b.connect("wire", "g2");
        b.add_device(
            "t2",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g2"), ("S", "s2"), ("D", "d2")],
        );
        let n = b.finish();
        let d1 = n.net_by_name("d1").unwrap();
        let g2 = n.net_by_name("g2").unwrap();
        assert_eq!(d1, g2);
        // Both devices appear on the shared net.
        let net = n.net(d1);
        assert_eq!(net.terminals.len(), 2);
    }

    #[test]
    fn equal_names_on_distinct_nodes_order_by_position() {
        // Two unconnected nodes that render alike stay two nets, in
        // node order, whatever the names' ownership.
        let names = vec![
            Cow::Borrowed("x"),
            Cow::Owned("x".to_string()),
            Cow::Borrowed("a"),
        ];
        let (n, node_nets) = assemble_netlist(names, &[], &[]);
        assert_eq!(n.net_count(), 3);
        assert_eq!(node_nets, vec![NetId(1), NetId(2), NetId(0)]);
        assert_eq!(n.net(NetId(1)).name, "x");
        assert_eq!(n.net(NetId(2)).aliases, vec!["x".to_string()]);
    }

    #[test]
    fn deterministic_order() {
        let a = inverter_netlist();
        let b = inverter_netlist();
        assert_eq!(a, b);
    }
}
