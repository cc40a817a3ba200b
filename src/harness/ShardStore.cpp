//===- harness/ShardStore.cpp - Durable per-cell result store ----------------===//

#include "harness/ShardStore.h"

#include "support/Json.h"

#include <type_traits>

using namespace gpuwmm;
using namespace gpuwmm::harness;

std::string ShardRecord::key() const {
  if (IsLitmus)
    return "litmus/" + Chip + "/" + Test;
  return "app/" + Chip + "/" + Env + "/" + App;
}

std::string ShardRecord::toJson() const {
  std::string S = "{\"kind\": \"";
  S += IsLitmus ? "litmus" : "app";
  S += "\", \"chip\": \"" + jsonEscape(Chip) + "\"";
  if (IsLitmus)
    S += ", \"test\": \"" + jsonEscape(Test) + "\"";
  else
    S += ", \"env\": \"" + jsonEscape(Env) + "\", \"app\": \"" +
         jsonEscape(App) + "\"";
  S += ", \"seed\": " + std::to_string(Seed);
  S += ", \"runs\": " + std::to_string(Runs);
  if (IsLitmus)
    S += ", \"weak\": " + std::to_string(Weak);
  else
    S += ", \"errors\": " + std::to_string(Errors) +
         ", \"timeouts\": " + std::to_string(Timeouts);
  S += ", \"oracle_checked\": " + std::to_string(OracleChecked);
  S += ", \"oracle_violations\": " + std::to_string(OracleViolations);
  S += "}";
  return S;
}

std::optional<ShardRecord> ShardRecord::fromJson(std::string_view Payload,
                                                 std::string *Err) {
  const std::optional<JsonValue> Doc = parseJson(Payload, Err);
  if (!Doc)
    return std::nullopt;
  // A non-object has no members, so jsonField rejects it too.
  constexpr JsonValue::Kind String = JsonValue::Kind::String;
  const JsonValue *Kind = jsonField(*Doc, "kind", String, Err);
  if (!Kind)
    return std::nullopt;
  ShardRecord R;
  if (Kind->asString() == "litmus")
    R.IsLitmus = true;
  else if (Kind->asString() != "app") {
    if (Err)
      *Err = "shard record has unknown kind '" + Kind->asString() + "'";
    return std::nullopt;
  }
  const JsonValue *Chip = jsonField(*Doc, "chip", String, Err);
  if (!Chip)
    return std::nullopt;
  R.Chip = Chip->asString();
  if (R.IsLitmus) {
    const JsonValue *Test = jsonField(*Doc, "test", String, Err);
    if (!Test || !jsonCount(*Doc, "weak", R.Weak, Err))
      return std::nullopt;
    R.Test = Test->asString();
  } else {
    const JsonValue *Env = jsonField(*Doc, "env", String, Err);
    const JsonValue *App = Env ? jsonField(*Doc, "app", String, Err)
                               : nullptr;
    if (!App || !jsonCount(*Doc, "errors", R.Errors, Err) ||
        !jsonCount(*Doc, "timeouts", R.Timeouts, Err))
      return std::nullopt;
    R.Env = Env->asString();
    R.App = App->asString();
  }
  const JsonValue *Seed =
      jsonField(*Doc, "seed", JsonValue::Kind::Number, Err);
  if (!Seed || !jsonCount(*Doc, "runs", R.Runs, Err) ||
      !jsonCount(*Doc, "oracle_checked", R.OracleChecked, Err) ||
      !jsonCount(*Doc, "oracle_violations", R.OracleViolations, Err))
    return std::nullopt;
  R.Seed = Seed->asUInt64();
  return R;
}

std::string harness::campaignManifestJson(const CampaignConfig &Config) {
  std::string S;
  S += "{\n";
  S += "  \"schema\": \"gpuwmm-campaign-manifest-v1\",\n";
  S += "  \"report_schema\": \"gpuwmm-campaign-v2\",\n";
  S += "  \"tool\": {\"name\": \"gpuwmm\", \"version\": \"" GPUWMM_VERSION
       "\"},\n";
  S += "  \"seed\": " + std::to_string(Config.Seed) + ",\n";
  S += "  \"runs\": " + std::to_string(Config.Runs) + ",\n";
  S += "  \"oracle_every\": " + std::to_string(Config.OracleEvery) + ",\n";
  const auto NameList = [&S](const char *Key,
                             const std::vector<std::string> &Names) {
    S += "  \"";
    S += Key;
    S += "\": [";
    for (size_t I = 0; I != Names.size(); ++I) {
      S += I ? ", " : "";
      // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
      S += "\"";
      S += jsonEscape(Names[I]);
      S += "\"";
    }
    S += "],\n";
  };
  std::vector<std::string> Names;
  for (const sim::ChipProfile *Chip : Config.Chips)
    Names.push_back(Chip->ShortName);
  NameList("chips", Names);
  Names.clear();
  for (const stress::Environment &Env : Config.Envs)
    Names.push_back(Env.name());
  NameList("envs", Names);
  Names.clear();
  for (apps::AppKind App : Config.Apps)
    Names.push_back(apps::appName(App));
  NameList("apps", Names);
  Names.clear();
  for (const litmus::Program *Test : Config.LitmusTests)
    Names.push_back(Test->Name);
  NameList("litmus", Names);
  const size_t Cells =
      Config.Chips.size() * Config.Envs.size() * Config.Apps.size() +
      Config.Chips.size() * Config.LitmusTests.size();
  S += "  \"cells\": " + std::to_string(Cells) + "\n";
  S += "}\n";
  return S;
}

bool harness::parseCampaignManifest(const std::string &Text,
                                    CampaignConfig &Config,
                                    std::string *Err) {
  const std::optional<JsonValue> Doc = parseJson(Text, Err);
  if (!Doc)
    return false;
  const JsonValue *Schema = Doc->find("schema");
  if (!Doc->isObject() || !Schema ||
      Schema->kind() != JsonValue::Kind::String ||
      Schema->asString() != "gpuwmm-campaign-manifest-v1") {
    if (Err)
      *Err = "not a gpuwmm campaign manifest";
    return false;
  }
  Config = CampaignConfig();
  Config.Chips.clear();
  Config.Envs.clear();
  Config.Apps.clear();
  const JsonValue *Seed =
      jsonField(*Doc, "seed", JsonValue::Kind::Number, Err);
  if (!Seed || !jsonCount(*Doc, "runs", Config.Runs, Err) ||
      !jsonCount(*Doc, "oracle_every", Config.OracleEvery, Err))
    return false;
  Config.Seed = Seed->asUInt64();

  // Each grid dimension is a list of names this build must know.
  const auto Resolve = [&](const char *Key, auto &Dim, auto Lookup) {
    const JsonValue *List = Doc->find(Key);
    if (!List || !List->isArray()) {
      if (Err)
        *Err = std::string("manifest is missing the '") + Key + "' list";
      return false;
    }
    for (const JsonValue &V : List->items()) {
      const std::string Name =
          V.kind() == JsonValue::Kind::String ? V.asString() : "";
      const auto Found = Lookup(Name);
      if (!Found) {
        if (Err)
          *Err = std::string("manifest names an unknown ") + Key +
                 " entry '" + Name + "'";
        return false;
      }
      if constexpr (std::is_pointer_v<decltype(Found)>)
        Dim.push_back(Found);
      else
        Dim.push_back(*Found);
    }
    return true;
  };
  if (!Resolve("chips", Config.Chips, sim::ChipProfile::lookup) ||
      !Resolve("envs", Config.Envs, stress::Environment::parse) ||
      !Resolve("apps", Config.Apps, apps::parseAppName) ||
      !Resolve("litmus", Config.LitmusTests, litmus::findCatalogProgram))
    return false;
  if (Config.Chips.empty() || Config.Envs.empty() || Config.Apps.empty()) {
    if (Err)
      *Err = "manifest describes an empty campaign grid";
    return false;
  }
  return true;
}

bool harness::loadCampaignManifest(const std::string &Dir,
                                   CampaignConfig &Config,
                                   std::string *Err) {
  std::string Text;
  if (!readFile(Dir + "/manifest.json", Text, Err))
    return false;
  if (!parseCampaignManifest(Text, Config, Err)) {
    if (Err)
      *Err = "'" + Dir + "/manifest.json': " + *Err;
    return false;
  }
  return true;
}

namespace {

/// A campaign directory as RecordDir lays it out.
constexpr RecordDir::Naming CampaignNaming = {
    "shard", "campaign",
    "campaign (grid, seed, runs, oracle or tool version differ); use a "
    "fresh --out-dir or matching flags",
    "cell"};

} // namespace

std::optional<ShardStore> ShardStore::open(const std::string &Dir,
                                           const CampaignConfig &Config,
                                           std::string *Err,
                                           unsigned CrashAfterAppends) {
  std::optional<RecordDir> Records =
      RecordDir::open(Dir, CampaignNaming, campaignManifestJson(Config),
                      CrashAfterAppends, Err);
  if (!Records)
    return std::nullopt;
  return ShardStore(std::move(*Records));
}

bool harness::loadCampaignShards(const std::string &Dir, LoadedShards &Out,
                                 std::string *Err) {
  Out = LoadedShards();
  std::vector<ScannedLog> Shards;
  if (!RecordDir::scan(Dir, CampaignNaming, Shards, Out.Warnings, Err))
    return false;
  for (const ScannedLog &Shard : Shards) {
    ++Out.ShardFiles;
    Out.TornShards += Shard.Records.TornTail;
    for (const std::string &Payload : Shard.Records.Payloads) {
      std::string ParseErr;
      const std::optional<ShardRecord> R =
          ShardRecord::fromJson(Payload, &ParseErr);
      if (!R) {
        if (Err)
          *Err = "'" + Shard.Path + "': " + ParseErr;
        return false;
      }
      const std::string Key = R->key();
      const auto [It, Inserted] =
          Out.ByKey.emplace(Key, Out.Records.size());
      if (Inserted) {
        Out.Records.push_back(*R);
        continue;
      }
      // Cells are pure functions of their canonical seed, so duplicate
      // records must agree; a conflict means the store mixes campaigns
      // and no merge of it can be trusted.
      if (!(Out.Records[It->second] == *R)) {
        if (Err)
          *Err = "'" + Shard.Path + "': conflicting duplicate record for "
                 "cell '" + Key + "' (the store mixes incompatible runs)";
        return false;
      }
      ++Out.Duplicates;
    }
  }
  return true;
}
