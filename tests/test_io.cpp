// Dataset I/O: edge-list parsers (text + binary), feature/label files, the
// mmap-backed zero-copy feature store, dataset-directory round-trips, the
// save->load->train differential harness, and a randomized round-trip
// property test. Every malformed-input path must raise io::FormatError with
// a descriptive message — never an assert or a garbage read.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "io/dataset_io.hpp"
#include "io/edge_list.hpp"
#include "io/feature_file.hpp"
#include "io/mmap_file.hpp"
#include "io/section.hpp"
#include "sampling/edge_split.hpp"

namespace splpg {
namespace {

namespace fs = std::filesystem;

void expect_graphs_identical(const graph::CsrGraph& a, const graph::CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.is_weighted(), b.is_weighted());
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edges()[e], b.edges()[e]) << "edge " << e;
    ASSERT_EQ(a.edge_weight(e), b.edge_weight(e)) << "edge weight " << e;
  }
}

void expect_features_identical(const graph::FeatureStore& a, const graph::FeatureStore& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.dim(), b.dim());
  const auto lhs = a.data();
  const auto rhs = b.data();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i], rhs[i]) << "feature element " << i;
  }
}

void expect_splits_identical(const sampling::LinkSplit& a, const sampling::LinkSplit& b) {
  expect_graphs_identical(a.train_graph, b.train_graph);
  ASSERT_EQ(a.train_pos, b.train_pos);
  ASSERT_EQ(a.val_pos, b.val_pos);
  ASSERT_EQ(a.test_pos, b.test_pos);
  ASSERT_EQ(a.val_neg, b.val_neg);
  ASSERT_EQ(a.test_neg, b.test_neg);
}

/// EXPECT_THROW + assert the message mentions `fragment` (descriptive errors
/// are part of the contract, not just the throw).
template <typename Callable>
void expect_format_error(Callable&& callable, const std::string& fragment) {
  try {
    (void)callable();
    FAIL() << "expected io::FormatError mentioning '" << fragment << "'";
  } catch (const io::FormatError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "message was: " << error.what();
  }
}

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("splpg_io_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---- text edge lists ----

TEST(IoEdgeListText, RoundTripsUnweightedGraph) {
  util::Rng rng(7);
  const auto graph = data::generate_erdos_renyi(50, 120, rng);
  std::stringstream stream;
  io::write_edge_list_text(stream, graph);
  const auto loaded = io::read_edge_list_text(stream, {.expected_nodes = 50});
  expect_graphs_identical(graph, loaded);
}

TEST(IoEdgeListText, RoundTripsWeightedGraphExactly) {
  graph::GraphBuilder builder(6, /*weighted=*/true);
  builder.add_edge(0, 1, 0.123456789F);
  builder.add_edge(1, 2, 3.0e-7F);
  builder.add_edge(2, 5, 1.0F / 3.0F);
  const auto graph = builder.build();
  std::stringstream stream;
  io::write_edge_list_text(stream, graph);
  const auto loaded = io::read_edge_list_text(stream, {.expected_nodes = 6});
  expect_graphs_identical(graph, loaded);  // %.9g round-trips floats bit-exactly
}

TEST(IoEdgeListText, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a comment\n\n0 1\n  \t\n# another\n1 2\n");
  const auto graph = io::read_edge_list_text(in);
  EXPECT_EQ(graph.num_nodes(), 3U);
  EXPECT_EQ(graph.num_edges(), 2U);
}

TEST(IoEdgeListText, RenumbersSparseIdsDensely) {
  std::istringstream in("1000 2000\n2000 3000\n");
  const auto graph = io::read_edge_list_text(in, {.renumber = true});
  EXPECT_EQ(graph.num_nodes(), 3U);
  EXPECT_EQ(graph.num_edges(), 2U);
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 2));
}

TEST(IoEdgeListText, NonNumericTokenIsDescriptiveError) {
  std::istringstream in("0 1\nfoo 2\n");
  expect_format_error([&] { return io::read_edge_list_text(in); }, "line 2");
}

TEST(IoEdgeListText, MissingTargetIsDescriptiveError) {
  std::istringstream in("0 1\n2\n");
  expect_format_error([&] { return io::read_edge_list_text(in); }, "missing target id");
}

TEST(IoEdgeListText, TrailingTokensAreAnError) {
  std::istringstream in("0 1 2.5 surprise\n");
  expect_format_error([&] { return io::read_edge_list_text(in); }, "trailing tokens");
}

TEST(IoEdgeListText, OutOfRangeNodeIdIsDescriptiveError) {
  std::istringstream in("0 1\n1 9\n");
  expect_format_error([&] { return io::read_edge_list_text(in, {.expected_nodes = 5}); },
                      "out of range");
}

TEST(IoEdgeListText, SelfLoopRejectedInStrictMode) {
  std::istringstream in("0 1\n3 3\n");
  expect_format_error([&] { return io::read_edge_list_text(in); }, "self-loop");
}

TEST(IoEdgeListText, DuplicateEdgeRejectedInStrictMode) {
  std::istringstream in("0 1\n1 2\n1 0\n");  // (1,0) duplicates (0,1)
  expect_format_error([&] { return io::read_edge_list_text(in); }, "duplicate edge");
}

TEST(IoEdgeListText, RelaxedModeMergesDuplicatesAndDropsSelfLoops) {
  std::istringstream in("0 1\n1 0\n2 2\n1 2\n");
  const auto graph = io::read_edge_list_text(in, {.strict = false});
  EXPECT_EQ(graph.num_edges(), 2U);  // (0,1) deduped, (2,2) dropped
}

TEST(IoEdgeListText, MissingFileIsDescriptiveError) {
  expect_format_error([] { return io::read_edge_list_text_file("/nonexistent/edges.txt"); },
                      "cannot open");
}

// ---- binary edge lists ----

TEST(IoEdgeListBinary, RoundTripsGraph) {
  util::Rng rng(11);
  const auto graph = data::generate_barabasi_albert(80, 3, rng);
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  const auto loaded = io::read_edge_list_binary(stream);
  expect_graphs_identical(graph, loaded);
}

TEST(IoEdgeListBinary, RoundTripsWeightedGraph) {
  graph::GraphBuilder builder(4, /*weighted=*/true);
  builder.add_edge(0, 1, 2.25F);
  builder.add_edge(1, 3, 0.5F);
  const auto graph = builder.build();
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  expect_graphs_identical(graph, io::read_edge_list_binary(stream));
}

TEST(IoEdgeListBinary, BadMagicIsDescriptiveError) {
  std::istringstream in("this is definitely not an SPGE file");
  expect_format_error([&] { return io::read_edge_list_binary(in); }, "bad magic");
}

TEST(IoEdgeListBinary, UnsupportedVersionIsDescriptiveError) {
  util::Rng rng(1);
  const auto graph = data::generate_erdos_renyi(10, 12, rng);
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  std::string bytes = stream.str();
  bytes[4] = 99;  // version field follows the 4-byte magic
  std::istringstream in(bytes);
  expect_format_error([&] { return io::read_edge_list_binary(in); }, "unsupported version");
}

TEST(IoEdgeListBinary, TruncatedHeaderIsDescriptiveError) {
  util::Rng rng(1);
  const auto graph = data::generate_erdos_renyi(10, 12, rng);
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  std::istringstream in(stream.str().substr(0, 10));
  expect_format_error([&] { return io::read_edge_list_binary(in); }, "truncated header");
}

TEST(IoEdgeListBinary, TruncatedPayloadIsDescriptiveError) {
  util::Rng rng(1);
  const auto graph = data::generate_erdos_renyi(40, 60, rng);
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  const std::string full = stream.str();
  std::istringstream in(full.substr(0, full.size() - 8));
  expect_format_error([&] { return io::read_edge_list_binary(in); }, "truncated");
}

/// A checksummed (v2) unweighted SPGE stream holding the raw `ids` pairs, so
/// the id checks behind the codec see exactly these values.
std::unique_ptr<std::stringstream> spge_stream(std::uint32_t num_nodes,
                                               const std::vector<std::uint32_t>& ids) {
  auto stream = std::make_unique<std::stringstream>();
  io::SectionWriter()
      .field<std::uint32_t>(0x53504745)  // "SPGE"
      .field<std::uint32_t>(2)           // version
      .field<std::uint32_t>(0)           // flags: unweighted
      .field(num_nodes)
      .field<std::uint64_t>(ids.size() / 2)
      .payload(ids.data(), ids.size() * sizeof(std::uint32_t))
      .write(*stream);
  return stream;
}

TEST(IoEdgeListBinary, OutOfRangeNodeIdIsDescriptiveError) {
  auto stream = spge_stream(4, {2, 9});  // v >= num_nodes
  expect_format_error([&] { return io::read_edge_list_binary(*stream); }, "out of range");
}

TEST(IoEdgeListBinary, SelfLoopAndDuplicateRejectedInStrictMode) {
  auto self_loop = spge_stream(8, {3, 3, 0, 1});
  expect_format_error([&] { return io::read_edge_list_binary(*self_loop); }, "self-loop");
  auto duplicate = spge_stream(8, {0, 1, 1, 0});
  expect_format_error([&] { return io::read_edge_list_binary(*duplicate); }, "duplicate edge");
}

TEST(IoEdgeListBinary, HeaderNodeCountMismatchIsDescriptiveError) {
  util::Rng rng(1);
  const auto graph = data::generate_erdos_renyi(10, 12, rng);
  std::stringstream stream;
  io::write_edge_list_binary(stream, graph);
  expect_format_error(
      [&] { return io::read_edge_list_binary(stream, {.expected_nodes = 99}); },
      "expected 99");
}

// ---- feature + label files ----

class IoFeatureFile : public TempDirTest {};

TEST_F(IoFeatureFile, BufferedRoundTripIsBitExact) {
  util::Rng rng(5);
  std::vector<std::uint32_t> communities(30, 0);
  const auto features = data::generate_features(30, 12, communities, 1.0, 0.7, rng);
  io::write_features_file(path("features.bin"), features);
  const auto loaded = io::read_features_file(path("features.bin"), io::FeatureBackend::kBuffered);
  EXPECT_FALSE(loaded.is_view());
  expect_features_identical(features, loaded);
}

TEST_F(IoFeatureFile, MmapBackendServesIdenticalRowsZeroCopy) {
  util::Rng rng(5);
  std::vector<std::uint32_t> communities(30, 0);
  const auto features = data::generate_features(30, 12, communities, 1.0, 0.7, rng);
  io::write_features_file(path("features.bin"), features);
  const auto mapped = io::read_features_file(path("features.bin"), io::FeatureBackend::kMmap);
  expect_features_identical(features, mapped);
  if (io::MappedFile::supported()) {
    EXPECT_TRUE(mapped.is_view());
    // A view store refuses mutation but gathers into an owned store.
    auto mutable_copy = mapped;
    EXPECT_THROW((void)mutable_copy.row(0), std::logic_error);
    const std::vector<graph::NodeId> nodes = {3, 1, 7};
    const auto gathered = mapped.gather(nodes);
    EXPECT_FALSE(gathered.is_view());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto want = features.row(nodes[i]);
      const auto got = gathered.row(static_cast<graph::NodeId>(i));
      for (std::uint32_t d = 0; d < features.dim(); ++d) ASSERT_EQ(want[d], got[d]);
    }
  }
}

TEST_F(IoFeatureFile, MmapViewOutlivesOriginalStoreCopy) {
  util::Rng rng(5);
  std::vector<std::uint32_t> communities(10, 0);
  const auto features = data::generate_features(10, 4, communities, 1.0, 0.5, rng);
  io::write_features_file(path("features.bin"), features);
  graph::FeatureStore copy;
  {
    const auto mapped = io::read_features_file(path("features.bin"), io::FeatureBackend::kMmap);
    copy = mapped;  // shares the keepalive; mapping must survive `mapped`
  }
  expect_features_identical(features, copy);
}

TEST_F(IoFeatureFile, TruncatedFeatureFileIsDescriptiveError) {
  util::Rng rng(5);
  std::vector<std::uint32_t> communities(30, 0);
  const auto features = data::generate_features(30, 12, communities, 1.0, 0.7, rng);
  io::write_features_file(path("features.bin"), features);
  fs::resize_file(path("features.bin"), fs::file_size(path("features.bin")) / 2);
  for (const auto backend : {io::FeatureBackend::kBuffered, io::FeatureBackend::kMmap}) {
    expect_format_error([&] { return io::read_features_file(path("features.bin"), backend); },
                        "truncated");
  }
}

TEST_F(IoFeatureFile, BadMagicIsDescriptiveError) {
  std::ofstream(path("features.bin")) << "totally not a feature file, sorry";
  expect_format_error(
      [&] { return io::read_features_file(path("features.bin"), io::FeatureBackend::kBuffered); },
      "bad magic");
}

TEST_F(IoFeatureFile, LabelRoundTripAndErrors) {
  const std::vector<std::uint32_t> labels = {4, 1, 2, 2, 0};
  io::write_labels_file(path("labels.bin"), labels);
  EXPECT_EQ(io::read_labels_file(path("labels.bin")), labels);
  std::ofstream(path("bad.bin")) << "nope";
  expect_format_error([&] { return io::read_labels_file(path("bad.bin")); }, "label file");
  fs::resize_file(path("labels.bin"), 10);
  expect_format_error([&] { return io::read_labels_file(path("labels.bin")); }, "truncated");
}

// ---- dataset directories ----

class IoDataset : public TempDirTest {};

TEST_F(IoDataset, BinaryDirectoryRoundTripIsExact) {
  const auto dataset = data::make_dataset("citeseer", 0.06, 17);
  io::save_dataset(dir_.string(), dataset, io::EdgeFormat::kBinary);
  const auto loaded = io::load_dataset(dir_.string());
  EXPECT_EQ(loaded.name, dataset.name);
  EXPECT_EQ(loaded.batch_size, dataset.batch_size);
  expect_graphs_identical(dataset.graph, loaded.graph);
  expect_features_identical(dataset.features, loaded.features);
  EXPECT_EQ(loaded.communities, dataset.communities);
}

TEST_F(IoDataset, TextDirectoryRoundTripIsExact) {
  const auto dataset = data::make_dataset("citeseer", 0.06, 17);
  io::save_dataset(dir_.string(), dataset, io::EdgeFormat::kText);
  const auto loaded = io::load_dataset(dir_.string());
  expect_graphs_identical(dataset.graph, loaded.graph);
  expect_features_identical(dataset.features, loaded.features);
  EXPECT_EQ(loaded.communities, dataset.communities);
}

TEST_F(IoDataset, MissingManifestKeyIsDescriptiveError) {
  const auto dataset = data::make_dataset("citeseer", 0.06, 17);
  io::save_dataset(dir_.string(), dataset);
  std::ofstream(path("meta.txt")) << "name=broken\n";  // everything else missing
  expect_format_error([&] { return io::load_dataset(dir_.string()); }, "missing key");
}

TEST_F(IoDataset, NonNumericManifestValueIsDescriptiveError) {
  const auto dataset = data::make_dataset("citeseer", 0.06, 17);
  io::save_dataset(dir_.string(), dataset);
  std::ofstream(path("meta.txt"))
      << "name=broken\nbatch_size=many\nnum_nodes=1\nnum_edges=1\nfeature_dim=1\n"
         "edge_format=binary\nhas_labels=0\n";
  expect_format_error([&] { return io::load_dataset(dir_.string()); }, "not a number");
}

TEST_F(IoDataset, EdgeCountMismatchIsDescriptiveError) {
  const auto dataset = data::make_dataset("citeseer", 0.06, 17);
  io::save_dataset(dir_.string(), dataset);
  // Rewrite the manifest with an edge count that contradicts edges.bin.
  std::ofstream(path("meta.txt"))
      << "name=" << dataset.name << "\nbatch_size=" << dataset.batch_size
      << "\nnum_nodes=" << dataset.graph.num_nodes() << "\nnum_edges=123456"
      << "\nfeature_dim=" << dataset.features.dim() << "\nedge_format=binary\nhas_labels=1\n";
  expect_format_error([&] { return io::load_dataset(dir_.string()); }, "123456");
}

TEST_F(IoDataset, MissingDirectoryIsDescriptiveError) {
  expect_format_error([&] { return io::load_dataset(path("not_there")); }, "cannot open");
}

// ---- the differential harness: save -> load -> train must be bit-identical ----

class IoDifferentialTraining : public TempDirTest {
 protected:
  static core::TrainConfig train_config(std::uint32_t batch_size) {
    core::TrainConfig config;
    config.method = core::Method::kSplpg;
    config.model.hidden_dim = 16;
    config.model.num_layers = 2;
    config.epochs = 2;
    config.batch_size = batch_size;
    config.num_partitions = 2;
    config.max_batches_per_epoch = 3;
    config.sync = dist::SyncMode::kGradientAveraging;
    config.seed = 23;
    return config;
  }

  static core::TrainResult train(const data::Dataset& dataset) {
    util::Rng rng = util::Rng(23).split("split");
    const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, rng);
    return core::train_link_prediction(split, dataset.features,
                                       train_config(dataset.batch_size));
  }

  static void expect_results_identical(const core::TrainResult& a, const core::TrainResult& b) {
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t e = 0; e < a.history.size(); ++e) {
      EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss) << "epoch " << e;
      EXPECT_DOUBLE_EQ(a.history[e].comm_gigabytes, b.history[e].comm_gigabytes);
    }
    EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
    EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc);
    ASSERT_NE(a.model, nullptr);
    ASSERT_NE(b.model, nullptr);
    const auto& want = a.model->parameters();
    const auto& got = b.model->parameters();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto lhs = want[i].value().data();
      const auto rhs = got[i].value().data();
      ASSERT_EQ(lhs.size(), rhs.size());
      for (std::size_t j = 0; j < lhs.size(); ++j) {
        ASSERT_EQ(lhs[j], rhs[j]) << "parameter " << i << " element " << j;
      }
    }
  }
};

TEST_F(IoDifferentialTraining, LoadedDatasetTrainsBitIdenticallyInAllFormatBackendCombos) {
  const auto dataset = data::make_dataset("cora", 0.08, 23);
  const auto reference = train(dataset);

  for (const auto format : {io::EdgeFormat::kBinary, io::EdgeFormat::kText}) {
    io::save_dataset(dir_.string(), dataset, format);
    for (const auto backend : {io::FeatureBackend::kBuffered, io::FeatureBackend::kMmap}) {
      io::DatasetLoadOptions options;
      options.feature_backend = backend;
      const auto loaded = io::load_dataset(dir_.string(), options);
      expect_graphs_identical(dataset.graph, loaded.graph);
      expect_features_identical(dataset.features, loaded.features);
      const auto result = train(loaded);
      expect_results_identical(reference, result);
    }
  }
}

// ---- property test: random round-trips preserve everything ----

TEST(IoPropertyRoundTrip, RandomDatasetsSurviveSaveLoadExactly) {
  const auto dir = fs::temp_directory_path() / "splpg_io_property";
  fs::remove_all(dir);
  for (std::uint64_t iteration = 0; iteration < 24; ++iteration) {
    util::Rng rng = util::Rng(1234).split("property", iteration);
    data::SbmParams params;
    params.num_nodes = static_cast<graph::NodeId>(64 + rng.uniform_u64(300));
    params.num_edges = 4 * params.num_nodes + rng.uniform_u64(4 * params.num_nodes);
    params.num_communities = static_cast<std::uint32_t>(2 + rng.uniform_u64(12));
    params.intra_prob = rng.uniform(0.6, 0.95);

    data::Dataset dataset;
    dataset.name = "prop_" + std::to_string(iteration);
    dataset.batch_size = static_cast<std::uint32_t>(32 + rng.uniform_u64(256));
    dataset.graph = data::generate_sbm(params, rng, &dataset.communities);
    const auto dim = static_cast<std::uint32_t>(4 + rng.uniform_u64(28));
    dataset.features = data::generate_features(dataset.graph.num_nodes(), dim,
                                               dataset.communities, 1.0, 0.7, rng);

    const auto format =
        iteration % 2 == 0 ? io::EdgeFormat::kBinary : io::EdgeFormat::kText;
    const auto backend = iteration % 3 == 0 ? io::FeatureBackend::kMmap
                                            : io::FeatureBackend::kBuffered;
    io::save_dataset(dir.string(), dataset, format);
    io::DatasetLoadOptions options;
    options.feature_backend = backend;
    const auto loaded = io::load_dataset(dir.string(), options);

    SCOPED_TRACE("iteration " + std::to_string(iteration) + " nodes=" +
                 std::to_string(params.num_nodes));
    EXPECT_EQ(loaded.name, dataset.name);
    EXPECT_EQ(loaded.batch_size, dataset.batch_size);
    expect_graphs_identical(dataset.graph, loaded.graph);
    expect_features_identical(dataset.features, loaded.features);
    EXPECT_EQ(loaded.communities, dataset.communities);

    // Eval splits derived from the loaded graph match the original's exactly.
    util::Rng split_a = util::Rng(99).split("split", iteration);
    util::Rng split_b = util::Rng(99).split("split", iteration);
    const auto original_split =
        sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_a);
    const auto loaded_split =
        sampling::split_edges(loaded.graph, sampling::SplitOptions{}, split_b);
    expect_splits_identical(original_split, loaded_split);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace splpg
